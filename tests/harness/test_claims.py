"""Every figure's paper claim, judged on the committed ``results/*.txt``,
and EXPERIMENTS.md's table rendered from them.  Nothing here simulates."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.experiments import FIGURES, claims_table, with_claims_table
from repro.harness.report import parse_table, render_table, with_bars

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "results"


def _committed(figure_id: str) -> str:
    return (RESULTS / f"{figure_id}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("figure_id", FIGURES)
def test_committed_table_parses_and_meets_its_claim(figure_id):
    text = _committed(figure_id)
    title, headers, rows = parse_table(text)
    lines = text.rstrip("\n").split("\n")
    assert title == lines[0] and len(rows) == len(lines) - 3
    assert all(len(row) == len(headers) for row in rows)
    failures = FIGURES[figure_id].claim.failures(text)
    assert not failures, f"{figure_id}: claim does not hold: {failures}"


def test_parse_table_restores_numbers_and_bar_columns():
    _, headers, rows = parse_table(_committed("fig02"))
    assert headers == ["System", "DRAM accesses", "Reduction vs Hygra", ""]
    assert rows[1][:3] == ["GLA", 102503, 1.61]
    # fig05's header line ends in padding, not in an empty column.
    assert parse_table(_committed("fig05"))[1] == ["App", "FS", "OK", "LJ", "WEB", "OG"]
    # A zero draws an empty bar; a float prints, and reads back, rounded.
    text = render_table(["x", "y", ""], with_bars([["a", 0.0], ["b", 1234.6]], 1), "t")
    assert parse_table(text) == ("t", ["x", "y", ""], [["a", 0, ""], ["b", 1235, "#" * 28]])


def test_every_figure_states_a_claim():
    no_row = {"summary", *(i for i in FIGURES if i.startswith("ablation_"))}
    for figure_id, figure in FIGURES.items():
        claim = figure.claim
        assert claim.conditions, figure_id
        row = (claim.experiment, claim.paper, claim.measured, claim.verdict)
        assert all(row) if figure_id not in no_row else not any(row), figure_id


def test_experiments_table_is_rendered_from_results():
    document = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert document == with_claims_table(document, RESULTS), (
        "EXPERIMENTS.md's claims table differs from a fresh render:\n"
        + claims_table(RESULTS)
    )
