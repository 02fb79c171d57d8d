"""The sharded parallel experiment executor: plan determinism, serial
parity, results returned by value (with or without a store), and graceful
degradation when workers crash or hang."""

from __future__ import annotations

import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.harness.parallel as parallel_mod
from repro.harness.experiments import FIGURES
from repro.harness.parallel import (
    RESOURCE_ENGINES,
    RunSpec,
    execute_runs,
    plan_shards,
    resource_group,
)
from repro.harness.runner import Runner
from repro.sim.config import scaled_config

SMALL = scaled_config(num_cores=4, llc_kb=2)


def _specs(engines=("Hygra", "ChGraph"), apps=("BFS",), datasets=("FS",)):
    return [
        RunSpec(e, a, d, SMALL) for e in engines for a in apps for d in datasets
    ]


def _normalized(specs):
    """What ``execute_runs`` takes: specs with every default resolved."""
    return [spec.normalized(pr_iterations=1) for spec in specs]


# -- shard planning ----------------------------------------------------------


def test_resource_group_keys_on_artifact_identity():
    from repro.hypergraph.pipeline import PreprocessSpec

    default = PreprocessSpec()
    assert resource_group(RunSpec("ChGraph", "PR", "WEB", SMALL)) == \
        ("WEB", 4, default)
    assert resource_group(RunSpec("GLA", "BFS", "WEB", SMALL)) == \
        ("WEB", 4, default)
    # Engines without GlaResources group only by dataset (and pipeline).
    assert resource_group(RunSpec("Hygra", "PR", "WEB", SMALL)) == \
        ("WEB", None, default)
    # Sweep points with different OAG parameters must not share a shard's
    # GlaResources artifact.
    sweep = RunSpec(
        "ChGraph", "PR", "WEB", SMALL, preprocessing=PreprocessSpec(w_min=9)
    )
    assert resource_group(sweep) == ("WEB", 4, PreprocessSpec(w_min=9))
    assert resource_group(sweep) != resource_group(
        RunSpec("ChGraph", "PR", "WEB", SMALL)
    )


def test_plan_shards_is_deterministic_and_complete():
    specs = _specs(
        engines=("Hygra", "GLA", "ChGraph", "HATS-V"),
        apps=("BFS", "PR"),
        datasets=("FS", "OK", "WEB"),
    )
    first = plan_shards(specs, 4)
    assert first == plan_shards(list(specs), 4)
    flat = [spec for shard in first for spec in shard]
    assert sorted(flat, key=repr) == sorted(set(specs), key=repr)
    # Only a group cut by a shard boundary is built twice: at most
    # ``jobs - 1`` groups straddle two shards.
    assert len(_straddling_groups(first)) <= 4 - 1


def _straddling_groups(shards):
    """The resource groups whose runs land on more than one shard."""
    owners = {}
    for index, shard in enumerate(shards):
        for spec in shard:
            owners.setdefault(resource_group(spec), set()).add(index)
    return [group for group, where in owners.items() if len(where) > 1]


def test_plan_shards_dedupes_and_handles_trivial_inputs():
    spec = RunSpec("Hygra", "BFS", "FS", SMALL)
    assert plan_shards([spec, spec], 4) == [[spec]]
    for jobs in (0, 1, 2, 4):
        assert plan_shards([], jobs) == []
    assert plan_shards([spec], 1) == [[spec]]


def test_one_resource_group_splits_into_equal_shards():
    """18 runs over one ``GlaResources`` artifact (fig16's grid) still use
    both workers: two shards of nine, not one inline shard."""
    specs = _specs(
        engines=("GLA", "ChGraph-HCGonly", "ChGraph"),
        apps=("BFS", "PR", "MIS", "BC", "CC", "k-core"),
        datasets=("WEB",),
    )
    assert len({resource_group(spec) for spec in specs}) == 1
    shards = plan_shards(specs, 2)
    assert [len(shard) for shard in shards] == [9, 9]
    assert sorted(sum(shards, []), key=repr) == sorted(specs, key=repr)


_ENGINE_NAMES = ("Hygra", "GLA", "ChGraph", "HATS-V")


@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(_ENGINE_NAMES),
            st.sampled_from(("BFS", "PR", "CC")),
            st.sampled_from(("FS", "OK", "WEB")),
            st.sampled_from((2, 4)),
        ),
        max_size=40,
    ),
    jobs=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_plan_shards_balances_runs_and_bounds_straddles(cells, jobs):
    specs = [
        RunSpec(engine, app, dataset, scaled_config(num_cores=cores, llc_kb=2))
        for engine, app, dataset, cores in cells
    ]
    unique = set(specs)
    shards = plan_shards(specs, jobs)
    assert shards == plan_shards(list(specs), jobs)
    assert len(shards) == min(jobs, len(unique))
    sizes = [len(shard) for shard in shards]
    assert all(sizes) and max(sizes, default=0) - min(sizes, default=0) <= 1
    assert sorted(sum(shards, []), key=repr) == sorted(unique, key=repr)
    assert len(_straddling_groups(shards)) <= jobs - 1


@pytest.mark.parametrize(
    "figure_id", [f for f in FIGURES if len(set(FIGURES[f].specs())) >= 2]
)
def test_every_multi_run_figure_plans_two_shards_at_two_jobs(figure_id):
    specs = _normalized(FIGURES[figure_id].specs())
    shards = plan_shards(specs, 2)
    assert len(shards) == 2
    assert abs(len(shards[0]) - len(shards[1])) <= 1


def test_resource_engines_cover_the_oag_consumers():
    assert RESOURCE_ENGINES == {
        "GLA", "GLA-cached", "ChGraph", "ChGraph-uncached", "ChGraph-HCGonly",
        "ChGraph-CPonly", "HATS-V",
    }


# -- serial parity -----------------------------------------------------------


def test_run_many_parallel_is_bit_identical_to_serial(tmp_path):
    specs = _specs(engines=("Hygra", "ChGraph"), datasets=("FS", "OK"))
    parallel = Runner(pr_iterations=1, cache_dir=tmp_path)
    results = parallel.run_many(specs, jobs=2, timeout=120)
    report = parallel.last_execution_report
    assert report is not None and report.parallel and report.ok
    assert all(r.where == "worker" for r in report.reports)

    serial = Runner(pr_iterations=1)
    for spec, result in results.items():
        expected = serial.run(spec)
        assert result.cycles == expected.cycles
        assert result.dram_accesses == expected.dram_accesses
        assert result.dram_by_group == expected.dram_by_group
        assert result.memory_stall_fraction == expected.memory_stall_fraction


def test_report_counts_the_workers_store_writes(tmp_path):
    """Workers write through their own copies of the store, so the caller's
    stats miss those writes; the report carries them back."""
    runner = Runner(pr_iterations=1, cache_dir=tmp_path)
    report = execute_runs(
        _normalized(_specs(engines=("Hygra",), apps=("BFS", "CC"))),
        runner,
        jobs=2,
        timeout=120,
    )
    assert report.parallel and report.ok
    assert all(r.where == "worker" for r in report.reports)
    assert report.worker_writes == 2
    assert runner.store.stats.writes == 0
    assert len(runner.store.ls()) == 2


def test_execute_runs_without_store_runs_in_parallel():
    specs = _normalized(_specs(engines=("Hygra", "ChGraph"), apps=("BFS", "CC")))
    report = execute_runs(specs, Runner(pr_iterations=1, cache_dir=None), jobs=2)
    assert report.parallel and report.ok
    assert all(r.where == "worker" for r in report.reports)
    serial = Runner(pr_iterations=1, cache_dir=None)
    for run in report.reports:
        expected = serial.run(run.spec)
        assert run.result.cycles == expected.cycles
        assert run.result.dram_by_group == expected.dram_by_group


class _SubRunner(Runner):
    """A runner subclass, as tests use to shrink datasets."""


def test_runner_pickles_as_its_configuration(tmp_path):
    """What a worker receives: the same class, iterations and store, but
    none of the caller's memo."""
    runner = _SubRunner(pr_iterations=3, cache_dir=tmp_path)
    runner.run_many(_specs(engines=("Hygra",)), jobs=1)
    copy = pickle.loads(pickle.dumps(runner))
    assert type(copy) is _SubRunner
    assert copy.pr_iterations == 3
    assert copy.store.root == runner.store.root
    assert runner._results and not copy._results


def test_run_many_skips_executor_when_memo_is_warm(tmp_path):
    runner = Runner(pr_iterations=1, cache_dir=tmp_path)
    specs = _specs(engines=("Hygra",), apps=("BFS", "CC"))
    first = runner.run_many(specs, jobs=2, timeout=120)
    again = runner.run_many(specs, jobs=2, timeout=120)
    assert runner.last_execution_report is None  # everything memo-resident
    for spec in specs:
        assert again[spec] is first[spec]


def test_run_many_answers_a_filled_store_without_a_pool(tmp_path):
    specs = _specs(engines=("Hygra", "ChGraph"), apps=("BFS", "CC"))
    Runner(pr_iterations=1, cache_dir=tmp_path).run_many(specs, jobs=2)
    fresh = Runner(pr_iterations=1, cache_dir=tmp_path)
    results = fresh.run_many(specs, jobs=2, timeout=120)
    assert fresh.last_execution_report is None  # no executor, no pool
    assert fresh.store.stats.hits == len(specs)
    assert fresh.store.stats.misses == 0
    assert set(results) == set(specs)


def test_one_shard_plan_runs_inline_and_retries_nothing(tmp_path):
    """A one-run batch plans one shard even at two jobs: it runs inline,
    untimed (a 10 ms alarm would kill the run), and counts as neither
    parallel nor retried."""
    runner = Runner(pr_iterations=1, cache_dir=tmp_path)
    runner.run_many(
        _specs(engines=("ChGraph",), apps=("BFS",)), jobs=2, timeout=0.01
    )
    report = runner.last_execution_report
    assert report is not None and report.ok
    assert len(report.shards) == 1
    assert not report.parallel
    assert report.retried() == []
    assert all(r.where == "inline" for r in report.reports)


# -- graceful degradation ----------------------------------------------------


def test_execute_runs_rejects_unnormalized_specs():
    """A worker would resolve ``None`` fields against its own environment,
    not the caller's runner, so the executor refuses them up front."""
    with pytest.raises(ValueError, match="normalized"):
        execute_runs(_specs(), Runner(cache_dir=None), jobs=1)


def test_worker_crash_is_retried_and_suite_completes(tmp_path):
    """A worker killed mid-run (os._exit) must not lose its shard."""
    specs = _normalized(_specs(engines=("Hygra", "ChGraph"), apps=("BFS", "CC")))
    report = execute_runs(
        specs,
        Runner(pr_iterations=1, cache_dir=tmp_path),
        jobs=2,
        timeout=120,
        retries=2,
        fault="crash:BFS",
    )
    assert report.parallel
    assert report.ok
    assert (tmp_path / "fault-crash.marker").exists()  # the kill fired
    # The retried shard's artifacts are real: a warm runner reuses them.
    warm = Runner(pr_iterations=1, cache_dir=tmp_path)
    warm.run(RunSpec("Hygra", "BFS", "FS", SMALL))
    assert warm.store.stats.hits >= 1


def test_worker_timeout_degrades_to_inline_execution(tmp_path, monkeypatch):
    """The executor reports a run hung past its SIGALRM budget as failed;
    ``run_many`` then re-runs it inline, untimed."""
    monkeypatch.setattr(
        parallel_mod,
        "execute_runs",
        functools.partial(parallel_mod.execute_runs, fault="hang:BFS"),
    )
    specs = _specs(engines=("Hygra", "ChGraph"), apps=("BFS", "CC"))
    runner = Runner(pr_iterations=1, cache_dir=tmp_path)
    results = runner.run_many(specs, jobs=2, timeout=3.0, retries=1)
    assert (tmp_path / "fault-hang.marker").exists()  # the hang fired
    report = runner.last_execution_report
    assert report is not None and report.parallel
    (hung,) = report.failures()
    assert hung.spec.algorithm == "BFS" and hung.where == "worker"
    assert hung.result is None and "exceeded 3.0s" in hung.error
    assert report.retried() == [hung]
    (spec,) = [s for s in specs if s.normalized(pr_iterations=1) == hung.spec]
    assert results[spec].cycles == Runner(pr_iterations=1).run(spec).cycles


def test_parallel_pool_generic_machinery_retries_crashes(tmp_path):
    from repro.store.pool import run_tasks

    marker = tmp_path / "pool-crash.marker"
    outcomes = run_tasks(
        _crash_once_then_square, [(3, str(marker)), (4, str(marker))], workers=2
    )
    assert [o.value for o in outcomes] == [9, 16]
    assert marker.exists()
    assert any(o.attempts > 1 or o.inline for o in outcomes)


def _crash_once_then_square(payload):
    """Top-level (picklable) pool task that kills its first worker."""
    import os

    value, marker = payload
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        os._exit(1)
    except FileExistsError:
        pass
    return value * value


def test_pool_inline_mode_propagates_errors():
    from repro.store.pool import run_tasks

    with pytest.raises(ZeroDivisionError):
        run_tasks(_reciprocal, [0], workers=1)


def _reciprocal(value):
    return 1 / value
