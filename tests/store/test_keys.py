"""Content hashes and store keys: stable, name-blind, parameter-sensitive."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hypergraph.hypergraph import Hypergraph
from repro.sim.config import scaled_config
from repro.store import (
    STORE_SCHEMA_VERSION,
    dataset_key,
    hypergraph_content_hash,
    resources_key,
    run_result_key,
)
from repro.store.keys import DATASET_MODULES

EDGES = [[0, 4, 6], [1, 2, 3, 5], [0, 2, 4], [1, 3, 6]]


def _figure1(name: str = "figure1") -> Hypergraph:
    return Hypergraph.from_hyperedge_lists(EDGES, num_vertices=7, name=name)


def test_content_hash_is_deterministic_and_name_blind():
    a = _figure1("one")
    b = _figure1("two")
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() == hypergraph_content_hash(a)
    assert len(a.content_hash()) == 64


def test_content_hash_memoized_on_instance():
    hg = _figure1()
    assert hg.content_hash() is hg.content_hash()


def test_content_hash_tracks_structure():
    base = _figure1()
    changed = Hypergraph.from_hyperedge_lists(
        [[0, 4, 6], [1, 2, 3, 5], [0, 2, 4], [1, 3, 5]], num_vertices=7
    )
    padded = Hypergraph.from_hyperedge_lists(EDGES, num_vertices=8)
    assert base.content_hash() != changed.content_hash()
    assert base.content_hash() != padded.content_hash()


def _spec(**overrides):
    from repro.harness.spec import RunSpec

    fields = dict(
        engine="ChGraph", algorithm="PR", dataset="WEB",
        config=scaled_config(), pr_iterations=2,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def test_resources_key_covers_every_parameter(figure1):
    from repro.hypergraph.pipeline import PreprocessSpec, StageSpec

    h = figure1.content_hash()
    pre = PreprocessSpec(w_min=3, d_max=16)
    baseline = resources_key(h, 4, pre)
    assert baseline == resources_key(h, 4, pre)
    assert baseline != resources_key(h, 8, pre)
    assert baseline != resources_key(h, 4, PreprocessSpec(w_min=5, d_max=16))
    assert baseline != resources_key(h, 4, PreprocessSpec(w_min=3, d_max=32))
    assert baseline != resources_key(
        h, 4, PreprocessSpec(3, 16, (StageSpec.make("identity"),))
    )
    assert baseline != resources_key("0" * 64, 4, pre)
    # ``None`` means the default record, and hashes identically to it.
    assert resources_key(h, 4) == resources_key(h, 4, PreprocessSpec())


def test_run_result_key_covers_config_and_iterations(figure1):
    h = figure1.content_hash()
    base = run_result_key(_spec(), h)
    assert base == run_result_key(_spec(), h)
    assert base != run_result_key(_spec(engine="Hygra"), h)
    assert base != run_result_key(_spec(algorithm="BFS"), h)
    assert base != run_result_key(_spec(pr_iterations=10), h)
    assert base != run_result_key(_spec(config=scaled_config(num_cores=4)), h)
    assert base != run_result_key(_spec(), "0" * 64)


def test_run_result_key_covers_preprocessing_and_check(figure1):
    """v4 closes the aliasing hole: non-default OAG parameters, pipeline
    stages, and checked runs all get distinct entries."""
    from repro.hypergraph.pipeline import PreprocessSpec, StageSpec

    h = figure1.content_hash()
    base = run_result_key(_spec(), h)
    assert base != run_result_key(
        _spec(preprocessing=PreprocessSpec(w_min=5)), h
    )
    assert base != run_result_key(
        _spec(preprocessing=PreprocessSpec(d_max=8)), h
    )
    assert base != run_result_key(
        _spec(preprocessing=PreprocessSpec(
            stages=(StageSpec.make("locality-reorder"),)
        )), h,
    )
    assert base != run_result_key(_spec(check=True, profile=True), h)
    # An explicit default record hashes like the implicit one.
    assert base == run_result_key(_spec(preprocessing=PreprocessSpec()), h)


def test_run_result_key_separates_profiled_runs(figure1):
    """A profiled run carries telemetry the plain run lacks; the store must
    never hand one out for the other."""
    h = figure1.content_hash()
    plain = run_result_key(_spec(), h)
    profiled = run_result_key(_spec(profile=True), h)
    assert plain != profiled
    assert plain == run_result_key(_spec(profile=False), h)


def test_run_result_key_requires_normalized_iterations(figure1):
    with pytest.raises(ValueError, match="pr_iterations"):
        run_result_key(_spec(pr_iterations=None), figure1.content_hash())


def test_schema_version_bumped_for_spec_keys():
    """v7: every payload is a record's raw form and stage records hash
    without ``"params": {}`` (v6: run payloads carry typed energy and
    coherence records; v5: runs honour the spec's pr_iterations and
    profiled telemetry counts engine accesses; v4: both store keys derive
    from RunSpec/PreprocessSpec and hash the full preprocessing record; v3
    added DRAM write traffic)."""
    assert STORE_SCHEMA_VERSION == 7


#: What importing the dataset layer loads that cannot change a dataset:
#: export tables, their lazy loader and exception declarations.
_NOT_HASHED = (
    "repro", "repro._exports", "repro.errors", "repro.harness", "repro.hypergraph",
)


def test_dataset_modules_are_what_generation_imports():
    """A fresh interpreter importing the dataset layer loads exactly the
    ``repro`` modules whose source the dataset key hashes, and the five
    that cannot change a dataset: a new import must be classified."""
    code = (
        "import sys, repro.harness.datasets\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert sorted(loaded) == sorted((*DATASET_MODULES, *_NOT_HASHED))


def test_dataset_key_covers_the_recipe():
    key = dataset_key("WEB", scale=1.0)
    assert key == dataset_key("WEB", scale=1.0)
    assert len({key, dataset_key("OK", scale=1.0), dataset_key("WEB", scale=0.5)}) == 3


def test_an_edited_exception_module_keeps_dataset_keys(tmp_path, monkeypatch):
    """``repro.errors`` declares exceptions and generates nothing, so an
    edit to it leaves every dataset key, hence every stored dataset, as it
    was."""
    key = dataset_key("WEB", 1.0)
    errors = importlib.import_module("repro.errors")
    edited = tmp_path / "errors.py"
    edited.write_bytes(Path(errors.__file__).read_bytes() + b"# edited\n")
    monkeypatch.setattr(errors, "__file__", str(edited))
    assert dataset_key("WEB", 1.0) == key


def test_an_edited_generator_misses_its_old_entries(tmp_path, monkeypatch):
    from repro.harness.datasets import load_dataset
    from repro.store.store import ArtifactStore

    load_dataset("FS", ArtifactStore(tmp_path / "store"))
    key = dataset_key("FS", scale=1.0)
    generators = importlib.import_module("repro.hypergraph.generators")
    edited = tmp_path / "generators.py"
    edited.write_bytes(Path(generators.__file__).read_bytes() + b"# edited\n")
    monkeypatch.setattr(generators, "__file__", str(edited))
    assert dataset_key("FS", scale=1.0) != key
    store = ArtifactStore(tmp_path / "store")
    load_dataset("FS", store)
    assert (store.stats.hits, store.stats.misses, store.stats.writes) == (0, 1, 1)
