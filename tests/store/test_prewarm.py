"""Prewarming and harness wiring: parallel workers sharing one store dir,
the Runner's persistent memo, and the dataset-cache test hook."""

from __future__ import annotations

import importlib
import multiprocessing
import os

import numpy as np

from repro.engine import GlaResources
from repro.harness.datasets import clear_dataset_cache, hypergraph_dataset
from repro.harness.runner import Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.pipeline import PreprocessSpec
from repro.sim.config import scaled_config
from repro.store import ArtifactStore, PrewarmJob, prewarm, prewarm_jobs


def test_prewarm_jobs_cross_product():
    jobs = prewarm_jobs(["WEB", "FS"], [4, 8], w_min=5)
    assert len(jobs) == 4
    assert jobs[0] == PrewarmJob(dataset="WEB", num_cores=4, w_min=5)
    assert {(j.dataset, j.num_cores) for j in jobs} == {
        ("WEB", 4), ("WEB", 8), ("FS", 4), ("FS", 8),
    }


def test_prewarm_inline_builds_then_skips(tmp_path):
    jobs = prewarm_jobs(["WEB"], [4])
    first = prewarm(tmp_path, jobs + jobs, workers=1)  # a repeat acts once
    assert [r.built for r in first] == [True]
    assert first[0].payload_bytes > 0
    second = prewarm(tmp_path, jobs, workers=1)
    assert [r.built for r in second] == [False]
    assert second[0].key == first[0].key


def test_concurrent_prewarm_into_one_store_dir(tmp_path):
    """Multiple worker processes writing the same directory: every artifact
    lands intact and is loadable afterwards."""
    jobs = prewarm_jobs(["WEB", "FS"], [2, 4])
    reports = prewarm(tmp_path, jobs, workers=2)
    assert len(reports) == 4
    assert all(r.payload_bytes > 0 for r in reports)
    store = ArtifactStore(tmp_path)
    assert len(store.ls()) == 6  # four resources and their two datasets
    for report in reports:
        loaded = store.get_resources(report.key)
        assert loaded is not None
        assert loaded.num_cores == report.job.num_cores
    # A second pass over the same combos is all cache hits, in any worker.
    again = prewarm(tmp_path, jobs, workers=2)
    assert [r.built for r in again] == [False] * 4


def test_a_group_whose_worker_died_is_built_inline(tmp_path, monkeypatch):
    """The worker building FS dies; its group is built here, and every job
    still has its artifact."""
    # The package exports the function under the module's name.
    prewarm_mod = importlib.import_module("repro.store.prewarm")
    build, inline = prewarm_mod._build, []

    def crash_on_fs(store, job):
        if job.dataset == "FS":
            if multiprocessing.parent_process() is not None:
                os._exit(1)
            inline.append(job.dataset)
        return build(store, job)

    monkeypatch.setattr(prewarm_mod, "_build", crash_on_fs)
    jobs = prewarm_jobs(["WEB", "FS"], [2])
    reports = prewarm(tmp_path, jobs, workers=2)
    assert inline == ["FS"]
    assert [r.job for r in reports] == jobs
    assert [r.built for r in reports] == [True, True]
    store = ArtifactStore(tmp_path)
    assert all(store.get_resources(r.key) is not None for r in reports)


def test_prewarm_stores_the_datasets_it_loads(tmp_path, monkeypatch):
    """After a prewarm, a runner reads the dataset and generates nothing;
    ``built`` still means the resources were built."""
    import repro.harness.datasets as datasets_mod

    (report,) = prewarm(tmp_path, [PrewarmJob(dataset="FS", num_cores=2)], workers=1)
    assert report.built

    def refuse(key):
        raise AssertionError(f"generated {key}")

    monkeypatch.setattr(datasets_mod, "_generate", refuse)
    runner = Runner(cache_dir=tmp_path)
    runner._dataset("FS")
    assert (runner.store.stats.hits, runner.store.stats.misses) == (1, 0)
    monkeypatch.undo()
    store = ArtifactStore(tmp_path)
    for entry in store.ls():
        if entry.kind == "datasets":
            entry.path.unlink()
            entry.path.with_name(entry.path.name + ".manifest").unlink()
    (again,) = prewarm(tmp_path, [PrewarmJob(dataset="FS", num_cores=2)], workers=1)
    assert not again.built  # the dataset was written again, the resources hit


def test_prewarmed_artifacts_match_direct_builds(tmp_path):
    report, = prewarm(tmp_path, [PrewarmJob(dataset="WEB", num_cores=4)], workers=1)
    loaded = ArtifactStore(tmp_path).get_resources(report.key)
    built = GlaResources.build(hypergraph_dataset("WEB"), 4)
    for a, b in zip(
        (*built.vertex_oags, *built.hyperedge_oags),
        (*loaded.vertex_oags, *loaded.hyperedge_oags),
        strict=True,
    ):
        assert np.array_equal(a.csr.offsets, b.csr.offsets)
        assert np.array_equal(a.csr.indices, b.csr.indices)
        assert np.array_equal(a.csr.weights, b.csr.weights)
    assert built.build_operations == loaded.build_operations


def test_clear_dataset_cache_forces_regeneration():
    first = hypergraph_dataset("WEB")
    assert hypergraph_dataset("WEB") is first
    clear_dataset_cache()
    second = hypergraph_dataset("WEB")
    assert second is not first
    # Same generator parameters → same content, so cache keys are unchanged.
    assert second.content_hash() == first.content_hash()


def test_runner_memo_keys_on_full_parameter_tuple():
    """Requests that differ in w_min must not alias each other's resources
    (the old memo keyed only on (name, num_cores))."""
    hypergraph = hypergraph_dataset("WEB")
    config = scaled_config(num_cores=4)
    runner = Runner()
    narrow = PreprocessSpec(w_min=30)
    wide = runner.resources(hypergraph, config, narrow)
    base = runner.resources(hypergraph, config)
    assert wide.w_min == 30 and base.w_min == 3
    assert wide.storage_bytes() < base.storage_bytes()
    # A repeat resolves from the memo.
    assert runner.resources(hypergraph, config, narrow) is wide


def test_runner_persistent_cache_across_instances(tmp_path):
    cold = Runner(pr_iterations=1, cache_dir=tmp_path)
    config = scaled_config(num_cores=4, llc_kb=2)
    first = cold.run(RunSpec("ChGraph", "BFS", "WEB", config))
    assert cold.store.stats.writes >= 2  # resources + run result

    warm = Runner(pr_iterations=1, cache_dir=tmp_path)
    second = warm.run(RunSpec("ChGraph", "BFS", "WEB", config))
    assert warm.store.stats.hits >= 1
    assert warm.store.stats.writes == 0
    assert np.array_equal(first.result, second.result)
    assert first.cycles == second.cycles
    assert first.dram_by_array == second.dram_by_array


def test_runner_without_cache_dir_has_no_store(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert Runner().store is None


def test_runner_env_var_opt_in(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runner = Runner()
    assert runner.store is not None
    assert runner.store.root == tmp_path
