"""The figure registry as a contract: golden tables, declared grids, and
reducers that never simulate."""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import pytest

import repro.harness.runner as runner_mod
from repro.cli import main
from repro.harness.experiments import FIGURES, FigureData, render
from repro.harness.report import render_table
from repro.harness.runner import Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.generators import paper_dataset

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: ``--figures all`` order, which ``repro bench`` prints tables in.
PAPER_ORDER = [
    "table1", "table2", "fig02", "fig03", "fig05", "fig07", "fig08",
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "fig22", "fig23", "fig24", "fig25", "vi_e", "summary",
]

#: Figures with no runs at all: config tables and dataset statistics.
GRIDLESS = {"table1", "table2", "fig08", "fig21", "vi_e"}


@pytest.fixture
def default_env(monkeypatch):
    """The environment the committed ``results/*.txt`` were rendered in."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)


@pytest.fixture(scope="module")
def golden_runner():
    """One memo shared by the golden figures (fig02 and fig24 share runs)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_CACHE_DIR", raising=False)
        patch.delenv("REPRO_BENCH_FULL", raising=False)
        yield Runner()


@pytest.mark.parametrize(
    "figure_id", ["table1", "table2", "vi_e", "fig02", "fig19", "fig24"]
)
def test_figure_matches_committed_result(figure_id, golden_runner):
    title, headers, rows = render(FIGURES[figure_id], golden_runner)
    text = render_table(headers, rows, title=title) + "\n"
    assert text == (RESULTS / f"{figure_id}.txt").read_text(encoding="utf-8")


def test_registry_order_is_the_paper_order():
    assert list(FIGURES) == PAPER_ORDER


def test_gridless_figures_declare_no_runs():
    assert {i for i, figure in FIGURES.items() if not figure.specs()} == GRIDLESS


@functools.cache
def _tiny_dataset():
    return paper_dataset("FS", scale=0.12)


class _TinyRunner(Runner):
    """Routes every dataset to one ~12%-scale stand-in."""

    def dataset(self, key):
        return _tiny_dataset()


class _NoSimulation(_TinyRunner):
    """A runner that refuses to simulate: anything a reducer reads must come
    from the results it was handed or the preprocessing accessors."""

    def _run_spec(self, spec):
        raise AssertionError(f"reducer started a simulation: {spec.label()}")


def test_every_figure_reduces_without_simulating():
    """Each reducer gets its grid, every spec mapped to one stand-in result,
    and a runner that cannot simulate."""
    simulated = _TinyRunner(pr_iterations=1, cache_dir=None).run_many(
        [RunSpec("Hygra", "BFS", "FS")]
    )
    (result,) = simulated.values()
    runner = _NoSimulation(pr_iterations=1, cache_dir=None)
    for figure_id, figure in FIGURES.items():
        results = dict.fromkeys(figure.specs(), result)
        title, headers, rows = render(figure, runner, results)
        assert title and headers and rows, figure_id


def test_undeclared_lookup_raises_key_error():
    figure = FIGURES["fig02"]
    results = dict.fromkeys(figure.specs())
    data = FigureData(figure, _NoSimulation(cache_dir=None), results)
    assert len(data.runs("PR", "WEB")) == 3
    # fig02 declares PR only: a reducer asking for BFS is out of bounds.
    with pytest.raises(KeyError):
        data.runs("BFS", "WEB")


def _count_simulations(monkeypatch) -> list[str]:
    """Record every simulated system the runner builds (one per simulation)."""
    built: list[str] = []
    real = runner_mod.SimulatedSystem

    def counting(config):
        built.append(config.name)
        return real(config)

    monkeypatch.setattr(runner_mod, "SimulatedSystem", counting)
    return built


@pytest.mark.parametrize("flag", ["--profile", "--check"])
def test_bench_simulates_each_declared_spec_once(
    flag, monkeypatch, tmp_path, capsys, default_env
):
    small = dataclasses.replace(FIGURES["fig02"], apps=("BFS",), datasets=("FS",))
    monkeypatch.setitem(FIGURES, "fig02", small)
    built = _count_simulations(monkeypatch)
    assert main([
        "bench", "--figures", "fig02", flag, "--jobs", "1",
        "--cache-dir", str(tmp_path),
    ]) == 0
    assert "Figure 2: main-memory accesses, BFS on FS" in capsys.readouterr().out
    assert len(built) == len(small.specs()) == 3
