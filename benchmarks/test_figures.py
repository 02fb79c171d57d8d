"""Every registry figure: render it on the process-wide memoized runner,
write ``results/<id>.txt``, re-render EXPERIMENTS.md's claims table from
``results/`` and assert the figure's paper claim on the printed table."""

from __future__ import annotations

import pytest

from repro.harness.experiments import FIGURES, render, with_claims_table
from repro.harness.runner import get_runner


@pytest.mark.parametrize("figure_id", FIGURES)
def test_figure(figure_id, benchmark, emit, results_dir):
    figure = FIGURES[figure_id]
    emit(figure_id, benchmark.pedantic(
        render, args=(figure, get_runner()), rounds=1, iterations=1,
    ))
    experiments = results_dir.parent / "EXPERIMENTS.md"
    experiments.write_text(
        with_claims_table(experiments.read_text(encoding="utf-8"), results_dir),
        encoding="utf-8",
    )
    text = (results_dir / f"{figure_id}.txt").read_text(encoding="utf-8")
    assert not figure.claim.failures(text), figure_id
