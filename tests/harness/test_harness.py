"""Tests for the experiment harness: runner, datasets, report rendering."""

from __future__ import annotations

import pytest

from repro.harness.datasets import GRAPH_DATASETS, graph_dataset, hypergraph_dataset
from repro.harness.report import format_value, render_table
from repro.harness.runner import PAPER_APPS, Runner, get_runner
from repro.harness.spec import RunSpec


def test_paper_apps_order():
    assert PAPER_APPS == ("BFS", "PR", "MIS", "BC", "CC", "k-core")


def test_runner_algorithm_factory():
    runner = Runner(pr_iterations=3)
    assert runner.algorithm("BFS").name == "BFS"
    pr = runner.algorithm("PR")
    assert pr.max_iterations == 3
    with pytest.raises(KeyError):
        runner.algorithm("nope")


def test_runner_engine_factory(small_hypergraph):
    runner = Runner()
    from repro.sim.config import scaled_config

    config = scaled_config(num_cores=4)
    for name in (
        "Hygra", "GLA", "ChGraph", "ChGraph-HCGonly", "ChGraph-CPonly",
        "HATS-V", "EventPrefetcher", "Ligra",
    ):
        engine = runner.engine(name, small_hypergraph, config)
        assert engine.name == name
    with pytest.raises(KeyError):
        runner.engine("nope", small_hypergraph, config)


def test_runner_memoizes(monkeypatch):
    runner = Runner(pr_iterations=1)
    # Route the dataset to a tiny stand-in so the test is fast.
    small = hypergraph_dataset("FS", scale=0.15)
    monkeypatch.setattr(runner, "dataset", lambda key: small)
    first = runner.run(RunSpec("Hygra", "BFS", "FS"))
    second = runner.run(RunSpec("Hygra", "BFS", "FS"))
    assert first is second


def test_graph_datasets_2_uniform():
    for key in GRAPH_DATASETS:
        graph = graph_dataset(key)
        assert all(
            graph.hyperedge_degree(h) == 2 for h in range(graph.num_hyperedges)
        )


def test_graph_dataset_cached():
    assert graph_dataset("AZ") is graph_dataset("AZ")
    with pytest.raises(KeyError):
        graph_dataset("XX")


def test_hypergraph_dataset_cached():
    assert hypergraph_dataset("OK") is hypergraph_dataset("OK")


def test_get_runner_singleton():
    assert get_runner() is get_runner()


def test_format_value():
    assert format_value(True) == "yes"
    assert format_value(3.14159) == "3.14"
    assert format_value(0.001234) == "0.001"
    assert format_value(12345) == "12,345"
    assert format_value(1234.5) == "1,234"
    assert format_value("x") == "x"
    assert format_value(0.0) == "0"


def test_render_table_alignment():
    text = render_table(
        ["Name", "Value"], [["a", 1], ["bb", 22]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "Name" in lines[1]
    assert "-" in lines[2]
    assert len(lines) == 5


@pytest.mark.parametrize("algorithm", ["PR", "Adsorption"])
def test_spec_pr_iterations_overrides_runner_default(monkeypatch, algorithm):
    """The spec's iteration count is the one that runs — it is the one the
    store key hashes — not the runner's default."""
    from repro.sim.config import scaled_config

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    runner = Runner(pr_iterations=2)
    small = hypergraph_dataset("FS", scale=0.15)
    monkeypatch.setattr(runner, "dataset", lambda key: small)
    config = scaled_config(num_cores=4, llc_kb=2)
    one = runner.run(RunSpec("Hygra", algorithm, "FS", config, pr_iterations=1))
    default = runner.run(RunSpec("Hygra", algorithm, "FS", config))
    assert (one.iterations, default.iterations) == (1, 2)


def test_runner_distinguishes_modified_configs(monkeypatch):
    """Two configs sharing a name but differing in fields must not collide."""
    from repro.sim.config import scaled_config

    runner = Runner(pr_iterations=1)
    small = hypergraph_dataset("FS", scale=0.15)
    monkeypatch.setattr(runner, "dataset", lambda key: small)
    base = scaled_config(num_cores=4)
    tweaked = base.replace(mlp=base.mlp * 4)
    first = runner.run(RunSpec("Hygra", "BFS", "FS", base))
    second = runner.run(RunSpec("Hygra", "BFS", "FS", tweaked))
    assert first is not second
    assert first.cycles != second.cycles


def test_runner_records_energy_and_coherence(monkeypatch):
    """Every runner-built result carries its energy; coherence counters
    appear only under ``track_coherence``, which observes without
    perturbing the simulation."""
    from repro.sim.config import scaled_config

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    runner = Runner(pr_iterations=1)
    small = hypergraph_dataset("FS", scale=0.15)
    monkeypatch.setattr(runner, "dataset", lambda key: small)
    config = scaled_config(num_cores=4, llc_kb=2)
    plain = runner.run(RunSpec("Hygra", "PR", "FS", config))
    tracked = runner.run(
        RunSpec("Hygra", "PR", "FS", config.replace(track_coherence=True))
    )
    assert plain.energy is not None and plain.energy.total_nj > 0
    assert plain.coherence is None
    assert tracked.coherence is not None and tracked.coherence.invalidations > 0
    assert tracked.cycles == plain.cycles
    assert tracked.energy == plain.energy


def test_with_bars_scaling():
    from repro.harness.report import with_bars

    rows = with_bars([["a", 10], ["b", 5], ["c", 0]], value_index=1, width=10)
    assert rows[0][-1] == "#" * 10
    assert rows[1][-1] == "#" * 5
    assert len(rows[2][-1]) <= 1
    # Original cells untouched.
    assert rows[0][:2] == ["a", 10]


def test_with_bars_empty_and_zero():
    from repro.harness.report import with_bars

    assert with_bars([], 0) == []
    rows = with_bars([["x", 0.0]], 1)
    assert rows[0][-1] == ""


def test_with_bars_zero_row_renders_empty_bar():
    """A zero value next to nonzero peers must not get a 1-char bar —
    '0 accesses' has to *look* like zero in the regenerated figure."""
    from repro.harness.report import with_bars

    rows = with_bars([["a", 10], ["b", 0], ["c", 0.0]], 1, width=10)
    assert rows[0][-1] == "#" * 10
    assert rows[1][-1] == ""
    assert rows[2][-1] == ""


def test_with_bars_negative_rows_render_empty_bar():
    from repro.harness.report import with_bars

    rows = with_bars([["a", 5], ["b", -3]], 1, width=10)
    assert rows[0][-1] == "#" * 10
    assert rows[1][-1] == ""
    # All-negative rows: no positive peak, every bar empty.
    rows = with_bars([["a", -5], ["b", -3]], 1, width=10)
    assert [row[-1] for row in rows] == ["", ""]


def test_with_bars_tiny_positive_values_stay_visible():
    from repro.harness.report import with_bars

    rows = with_bars([["a", 1000], ["b", 1]], 1, width=10)
    assert rows[1][-1] == "#"


def test_runner_loads_dataset_once_per_store_miss(tmp_path, monkeypatch):
    """The store-enabled miss path used to call ``dataset()`` twice (once
    for the content hash, once for the simulation)."""
    from repro.sim.config import scaled_config

    small = hypergraph_dataset("FS", scale=0.15)
    calls = {"n": 0}

    def counting_dataset(key):
        calls["n"] += 1
        return small

    config = scaled_config(num_cores=4, llc_kb=2)
    cold = Runner(pr_iterations=1, cache_dir=tmp_path)
    monkeypatch.setattr(cold, "dataset", counting_dataset)
    cold.run(RunSpec("Hygra", "BFS", "FS", config))
    assert calls["n"] == 1
    # Memo hit: no dataset resolution at all.
    cold.run(RunSpec("Hygra", "BFS", "FS", config))
    assert calls["n"] == 1

    # Warm store hit in a fresh runner: one load (for the content hash).
    warm = Runner(pr_iterations=1, cache_dir=tmp_path)
    monkeypatch.setattr(warm, "dataset", counting_dataset)
    warm.run(RunSpec("Hygra", "BFS", "FS", config))
    assert calls["n"] == 2
    assert warm.store.stats.hits >= 1


def test_get_runner_tracks_environment_changes(tmp_path, monkeypatch):
    """Setting $REPRO_CACHE_DIR or $REPRO_BENCH_FULL after the first call
    must not be silently ignored by a frozen singleton."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    plain = get_runner()
    assert plain.store is None
    assert plain is get_runner()  # stable under an unchanged environment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cached = get_runner()
    assert cached is not plain
    assert cached.store is not None and cached.store.root == tmp_path

    monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    full = get_runner()
    assert full is not cached
    assert full.pr_iterations == 10

    # Reverting the environment returns the matching runner, memo intact.
    monkeypatch.delenv("REPRO_BENCH_FULL")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert get_runner() is plain
