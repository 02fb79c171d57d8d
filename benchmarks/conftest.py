"""Shared benchmark plumbing.

Every figure benchmark renders one registry entry of
:data:`~repro.harness.experiments.FIGURES` through the process-wide memoized
:class:`~repro.harness.runner.Runner`, so simulations shared by several
figures run once.  Each bench prints its table and also writes it to
``results/<name>.txt`` so the regenerated evaluation survives the run.

Run with ``pytest benchmarks/ --benchmark-only``; set ``REPRO_BENCH_FULL=1``
for the paper's full PageRank iteration count.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.experiments import FIGURES, render
from repro.harness.report import render_table
from repro.harness.runner import get_runner

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir):
    """Render, print, and persist one experiment table."""

    def _emit(name: str, table: tuple) -> list[list[object]]:
        title, headers, rows = table
        text = render_table(headers, rows, title=title)
        print("\n" + text)
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        return rows

    return _emit


@pytest.fixture
def figure(benchmark, emit):
    """Render one registry figure (timed once), then print and persist it."""

    def _figure(figure_id: str) -> list[list[object]]:
        table = benchmark.pedantic(
            render, args=(FIGURES[figure_id], get_runner()),
            rounds=1, iterations=1,
        )
        return emit(figure_id, table)

    return _figure
