"""The sharded parallel experiment executor: plan determinism, serial
parity, and graceful degradation when workers crash, hang, or there is no
store to act as the cross-process result bus."""

from __future__ import annotations

import pytest

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
    # Runs sharing one GlaResources artifact never straddle two shards.
    for group in {resource_group(s) for s in specs}:
        owners = {
            i
            for i, shard in enumerate(first)
            for spec in shard
            if resource_group(spec) == group
        }
        assert len(owners) == 1, group


def test_plan_shards_dedupes_and_handles_trivial_inputs():
    spec = RunSpec("Hygra", "BFS", "FS", SMALL)
    assert plan_shards([spec, spec], 4) == [[spec]]
    assert plan_shards([], 4) == []
    assert plan_shards([spec], 1) == [[spec]]


def test_resource_engines_cover_the_oag_consumers():
    assert RESOURCE_ENGINES == {
        "GLA", "ChGraph", "ChGraph-HCGonly", "ChGraph-CPonly", "HATS-V",
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


def test_run_many_without_store_degrades_to_serial_loop():
    runner = Runner(pr_iterations=1)
    specs = _specs(engines=("Hygra",), apps=("BFS", "CC"))
    results = runner.run_many(specs, jobs=4)
    assert runner.last_execution_report is None
    for spec in specs:
        assert results[spec] is runner.run(spec)


def test_run_many_skips_executor_when_memo_is_warm(tmp_path):
    runner = Runner(pr_iterations=1, cache_dir=tmp_path)
    specs = _specs(engines=("Hygra",), apps=("BFS", "CC"))
    first = runner.run_many(specs, jobs=2, timeout=120)
    again = runner.run_many(specs, jobs=2, timeout=120)
    assert runner.last_execution_report is None  # everything memo-resident
    for spec in specs:
        assert again[spec] is first[spec]


# -- graceful degradation ----------------------------------------------------


def test_execute_runs_without_cache_dir_runs_inline():
    report = execute_runs(
        _normalized(_specs(engines=("Hygra",), apps=("BFS", "CC"))),
        cache_dir=None,
        jobs=4,
    )
    assert not report.parallel
    assert report.jobs == 1
    assert report.ok
    assert all(r.where == "inline" for r in report.reports)


def test_execute_runs_rejects_unnormalized_specs():
    """A worker would resolve ``None`` fields against its own environment,
    not the caller's runner, so the executor refuses them up front."""
    with pytest.raises(ValueError, match="normalized"):
        execute_runs(_specs(), cache_dir=None, jobs=1)


def test_worker_crash_is_retried_and_suite_completes(tmp_path):
    """A worker killed mid-run (os._exit) must not lose its shard."""
    specs = _normalized(_specs(engines=("Hygra", "ChGraph"), apps=("BFS", "CC")))
    report = execute_runs(
        specs,
        cache_dir=tmp_path,
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


def test_worker_timeout_degrades_to_inline_execution(tmp_path):
    """A run hung past its SIGALRM budget is re-run inline, untimed."""
    specs = _normalized(_specs(engines=("Hygra", "ChGraph"), apps=("BFS", "CC")))
    report = execute_runs(
        specs,
        cache_dir=tmp_path,
        jobs=2,
        timeout=3.0,
        retries=1,
        fault="hang:BFS",
    )
    assert report.parallel
    assert report.ok
    assert (tmp_path / "fault-hang.marker").exists()  # the hang fired
    inline = [r for r in report.reports if r.where == "inline"]
    assert any(r.spec.algorithm == "BFS" for r in inline)


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
