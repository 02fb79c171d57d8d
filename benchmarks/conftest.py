"""Shared benchmark plumbing.

``emit`` prints a bench's table and writes it to ``results/<name>.txt``, so
the regenerated evaluation survives the run: ``test_figures.py`` emits
every registry figure, the ``*_speedup.py`` benches their host timings.

Run with ``PYTHONPATH=src:. pytest benchmarks/ --benchmark-only``; set
``REPRO_BENCH_FULL=1`` for the paper's full PageRank iteration count.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.harness.report import render_table

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Timed calls per kernel in the host-timing benches, after one warm-up
#: call: the fastest of them moves least from run to run.
REPEATS = 5


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
def best_time():
    """Time ``fn`` as its fastest of :data:`REPEATS` calls after one warm-up
    call; ``setup`` runs untimed before every call.  Returns ``(result of
    the last call, seconds)``."""

    def _best_time(fn, setup=lambda: None):
        seconds = []
        for _ in range(1 + REPEATS):
            setup()
            start = time.perf_counter()
            result = fn()
            seconds.append(time.perf_counter() - start)
        return result, min(seconds[1:])

    return _best_time
