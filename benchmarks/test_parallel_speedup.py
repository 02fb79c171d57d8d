"""Sharded parallel executor vs serial on a cold multi-figure run matrix.

Guards the tentpole claim of the parallel-executor PR: with four jobs on a
machine with at least four usable CPUs, a cold run of the fig02+fig05
matrix (22 runs across six resource groups) is at least 1.5× faster than
the same matrix executed serially, and the figure tables reduced from the
two runs are byte-identical.  Skipped on smaller machines, where
process-level parallelism cannot pay for itself.
"""

from __future__ import annotations

import os

import pytest

from repro.benchmark.measure import timed
from repro.harness.experiments import FIGURES, render
from repro.harness.parallel import plan_shards
from repro.harness.report import render_table
from repro.harness.runner import Runner

MIN_SPEEDUP = 1.5
JOBS = 4
SUITE = ("fig02", "fig05")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _tables(runner: Runner, results) -> list[str]:
    tables = []
    for figure_id in SUITE:
        title, headers, rows = render(FIGURES[figure_id], runner, results)
        tables.append(render_table(headers, rows, title=title))
    return tables


@pytest.mark.skipif(
    _usable_cpus() < JOBS,
    reason=f"needs ≥{JOBS} CPUs for a meaningful parallel-speedup gate",
)
def test_parallel_cold_run_speedup(benchmark, emit, tmp_path):
    specs = [spec for figure_id in SUITE for spec in FIGURES[figure_id].specs()]
    assert len(set(specs)) == 22
    assert len(plan_shards(specs, JOBS)) == JOBS  # enough runs to fan out

    def measure():
        serial = Runner(cache_dir=tmp_path / "serial")
        serial_results, serial_s = timed(lambda: serial.run_many(specs, jobs=1))
        assert not serial.last_execution_report.parallel

        parallel = Runner(cache_dir=tmp_path / "parallel")
        parallel_results, parallel_s = timed(
            lambda: parallel.run_many(specs, jobs=JOBS, timeout=600)
        )
        report = parallel.last_execution_report
        assert report is not None and report.ok and report.parallel

        # Byte-identical tables: in-process results vs worker results.
        assert _tables(serial, serial_results) == _tables(
            parallel, parallel_results
        )

        rows = [
            ["runs", len(set(specs))],
            ["shards (parallel)", len(report.shards)],
            ["serial cold run (s)", round(serial_s, 2)],
            [f"parallel cold run, {JOBS} jobs (s)", round(parallel_s, 2)],
            ["speedup", round(serial_s / parallel_s, 2)],
        ]
        title = (
            f"Parallel sharded executor — cold {'+'.join(SUITE)} matrix, "
            f"{JOBS} jobs"
        )
        return title, ["quantity", "value"], rows

    rows = emit(
        "parallel_speedup",
        benchmark.pedantic(measure, rounds=1, iterations=1),
    )
    speedup = rows[4][1]
    assert speedup >= MIN_SPEEDUP, (
        f"parallel cold run only {speedup}x faster than serial "
        f"(need ≥{MIN_SPEEDUP}x with {JOBS} jobs)"
    )
