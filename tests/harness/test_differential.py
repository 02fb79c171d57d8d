"""Tests for the cross-engine differential harness."""

from __future__ import annotations

import os

import pytest

from repro.harness import differential
from repro.sim.config import scaled_config


def test_seeded_graphs_are_deterministic():
    a = differential.seeded_graphs(count=2, base_seed=101)
    b = differential.seeded_graphs(count=2, base_seed=101)
    assert [g.name for g in a] == ["diff-101", "diff-102"]
    for x, y in zip(a, b):
        assert x.content_hash() == y.content_hash()
    shifted = differential.seeded_graphs(count=1, base_seed=202)[0]
    assert shifted.content_hash() != a[0].content_hash()


def test_five_graph_differential_smoke():
    # The ISSUE's acceptance smoke: five seeded graphs, identical results
    # across engines, zero invariant violations.  Restricted to the three
    # headline engines so the sweep stays test-suite fast; the full
    # registry is exercised by `repro check` in CI.
    report = differential.run_differential(
        engines=["Hygra", "GLA", "ChGraph"],
        algorithms=("PR", "BFS"),
        graph_count=5,
        ordering=False,
    )
    assert report.ok, report.summary() + "\n" + "\n".join(
        report.failures + report.violations
    )
    assert report.runs == 30  # 3 engines x 2 algorithms x 5 graphs
    assert report.comparisons == 20  # 2 non-reference engines x 2 x 5
    assert report.skipped == []


def test_full_registry_single_graph():
    report = differential.run_differential(
        graph_count=1, algorithms=("CC",), ordering=False
    )
    assert report.ok, report.summary()
    # Ligra structurally skips non-2-uniform hypergraphs: a skip, not a fail.
    assert any("Ligra" in s for s in report.skipped)


def test_lost_writeback_fault_fails_the_sweep():
    with differential.inject_fault("lost-writeback"):
        report = differential.run_differential(
            engines=["Hygra", "ChGraph"],
            algorithms=("CC",),
            graph_count=1,
            ordering=False,
        )
    assert not report.ok
    assert report.violations


def _skewed_attribution_sweep(engine: str, algorithm: str):
    with differential.inject_fault("skewed-attribution"):
        return differential.run_differential(
            engines=[engine],
            algorithms=(algorithm,),
            graph_count=1,
            ordering=False,
        )


def test_skewed_attribution_fault_fails_the_sweep():
    report = _skewed_attribution_sweep("Hygra", "BFS")
    assert not report.ok
    assert any("per-array DRAM fetches" in v for v in report.violations)


@pytest.mark.parametrize("engine", ["ChGraph", "EventPrefetcher"])
def test_skewed_attribution_fault_reaches_engine_fetches(engine):
    """These engines fetch most of their lines on the engine channel, and
    their demand writes take the write port; the fault must skew both."""
    report = _skewed_attribution_sweep(engine, "PR")
    assert not report.ok
    assert any("per-array DRAM fetches" in v for v in report.violations)


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        with differential.inject_fault("no-such-fault"):
            pass


def test_fault_patch_is_restored_after_context():
    from repro.sim.hierarchy import MemoryHierarchy

    original = MemoryHierarchy._writeback_to_dram
    with differential.inject_fault("lost-writeback"):
        assert MemoryHierarchy._writeback_to_dram is not original
    assert MemoryHierarchy._writeback_to_dram is original


def test_report_summary_shape():
    report = differential.DifferentialReport(runs=3, comparisons=2)
    assert report.ok
    assert "OK" in report.summary()
    report.failures.append("x diverged")
    assert not report.ok
    assert "FAIL" in report.summary()


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_FULL", "") in ("", "0"),
    reason="full-scale ordering sweep is minutes long; REPRO_BENCH_FULL=1 "
    "enables it (also exercised by `repro check` without --no-ordering)",
)
def test_overlap_heavy_ordering_holds():
    # Full-scale reseeded paper presets: ChGraph's chain schedule must not
    # fetch more DRAM lines than Hygra's index order (the paper's headline
    # ordering).
    config = scaled_config(num_cores=4, llc_kb=2)
    report = differential.run_differential(
        engines=["Hygra", "ChGraph"],
        algorithms=(),
        graph_count=0,
        config=config,
        ordering=True,
    )
    assert report.ok, report.summary() + "\n" + "\n".join(report.failures)
    assert report.comparisons >= 2  # one per overlap-heavy preset
