"""Smoke tests for the figure registry on tiny datasets.

Full-size experiment tables are exercised by the benchmark suite; here a
scaled-down runner verifies every figure produces well-formed rows and
preserves the paper's qualitative direction where it is cheap to check.
Figures are shrunk with :func:`dataclasses.replace` on their grid axes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness.experiments import FIGURES, render
from repro.hypergraph.pipeline import PreprocessSpec
from repro.sim.config import scaled_config


@pytest.fixture
def table(tiny_runner):
    """Render a registry figure, optionally shrunk on its grid axes."""

    def _table(figure_id, **axes):
        return render(replace(FIGURES[figure_id], **axes), tiny_runner)

    return _table


def test_table1_rows(table):
    title, headers, rows = table("table1")
    assert "Table I" in title
    assert len(rows) == 7


def test_table2_rows(table):
    _, headers, rows = table("table2")
    assert len(rows) == 5
    assert headers[0] == "Dataset"


def test_fig02_and_fig03(table):
    _, _, rows02 = table("fig02")
    assert [row[0] for row in rows02] == ["Hygra", "GLA", "ChGraph"]
    _, _, rows03 = table("fig03")
    chgraph_speedup = rows03[2][2]
    assert chgraph_speedup > 1.0  # ChGraph beats Hygra even at tiny scale


def test_fig05(table):
    _, headers, rows = table("fig05", apps=("PR",))
    assert len(rows) == 1
    assert all(0.0 <= value <= 1.0 for value in rows[0][1:])


def test_fig08(table):
    _, _, rows = table("fig08")
    assert len(rows) == 10  # 2 sides x 5 datasets
    for row in rows:
        ratios = row[2:]
        assert ratios == sorted(ratios, reverse=True)


def test_fig14_subset(table):
    _, _, rows = table("fig14", apps=("PR",))
    assert len(rows) == 5
    for row in rows:
        assert row[3] > 1.0  # ChGraph speedup


def test_fig16(table):
    _, _, rows = table("fig16", apps=("PR",))
    assert rows[0][3] > 1.0  # full ChGraph beats software GLA


def test_fig17_and_fig18(table):
    _, _, rows17 = table(
        "fig17",
        preprocessings=(PreprocessSpec(d_max=2), PreprocessSpec(d_max=16)),
    )
    assert [row[0] for row in rows17] == [2, 16]
    _, _, rows18 = table(
        "fig18",
        preprocessings=(PreprocessSpec(w_min=1), PreprocessSpec(w_min=9)),
    )
    assert [row[0] for row in rows18] == [1, 9]


def test_fig19(table):
    _, _, rows = table(
        "fig19", configs=(scaled_config(llc_kb=2), scaled_config(llc_kb=4))
    )
    assert [row[0] for row in rows] == ["2KB", "4KB"]


def test_fig21(table):
    _, _, rows = table("fig21")
    assert len(rows) == 5
    for row in rows:
        assert row[1] > 0  # OAG construction always costs something
        assert row[2] > 0  # and takes extra space


def test_fig24(table):
    _, _, rows = table("fig24", datasets=("OK",))
    assert [row[0] for row in rows] == [
        "Hygra", "Hygra+Reorder", "ChGraph", "ChGraph+Reorder",
    ]


def test_fig25(table):
    _, _, rows = table("fig25")
    assert len(rows) == 4
    for row in rows:
        assert row[2] > 0  # finite speedups


def test_vi_e(table):
    _, _, rows = table("vi_e")
    values = dict((row[0], row[1]) for row in rows)
    assert values["Total area"].endswith("mm2")


def test_fig15_tiny(table):
    _, _, rows = table("fig15", apps=("PR",))
    assert len(rows) == 10  # 5 datasets x {Hygra, ChGraph}
    hygra_rows = [row for row in rows if row[2] == "H"]
    assert all(row[7] == 0 for row in hygra_rows)  # no OAG traffic


def test_fig20_tiny(table):
    _, _, rows = table(
        "fig20", configs=(scaled_config(num_cores=2), scaled_config(num_cores=4))
    )
    assert len(rows) == 2
    assert rows[0][1] > rows[1][1]  # more cores, fewer Hygra cycles


def test_fig22_tiny(table):
    _, _, rows = table("fig22", apps=("PR",))
    assert len(rows) == 5
    assert all(row[2] > 0 for row in rows)


def test_fig23_tiny(table):
    _, _, rows = table("fig23", apps=("PR",))
    assert len(rows) == 5


def test_headline_summary_tiny(table):
    _, _, rows = table("summary", apps=("PR",))
    assert len(rows) == 1
    assert rows[0][1] > 1.0  # min ChGraph speedup
