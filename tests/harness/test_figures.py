"""The figure registry as a contract: golden tables, declared grids, and
reducers that never simulate."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from pathlib import Path

import pytest

import repro.sim.system as system_mod
from repro.cli import main
from repro.harness.experiments import FIGURES, FigureData, render
from repro.harness.report import render_table
from repro.harness.runner import Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.generators import paper_dataset
from repro.sim.config import scaled_config

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: ``--figures all`` order, which ``repro bench`` prints tables in.
PAPER_ORDER = [
    "table1", "table2", "fig02", "fig03", "fig05", "fig07", "fig08",
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "fig22", "fig23", "fig24", "fig25", "vi_e", "summary",
    "ablation_amortization", "ablation_chain_cache", "ablation_coherence",
    "ablation_cycle_model", "ablation_energy", "ablation_interleaving",
    "ablation_partitioning", "ablation_pull", "ablation_wmin_storage",
]

#: Figures with no runs at all: config tables, dataset statistics and
#: preprocessing-only ablations.
GRIDLESS = {
    "table1", "table2", "fig08", "fig21", "vi_e",
    "ablation_cycle_model", "ablation_wmin_storage",
}

#: Tables pinned byte-for-byte against ``results/*.txt`` at full scale.
BYTE_PINNED = [
    "table1", "table2", "vi_e", "fig02", "fig19", "fig24",
    "ablation_wmin_storage", "ablation_cycle_model",
]

#: sha256 of every other table, rendered on the reduced-scale
#: ``tiny_runner``.  A mismatch is a model change: update the digest and
#: record the change in CHANGES.md.
TABLE_DIGESTS = {
    "ablation_amortization": "48573c3bcdd990b9ce1d2c5be62ea240678b8553e07006dc0eeccc6fb4324ff0",
    "ablation_chain_cache": "0bb00e01e5a6742ed54b932a1af880e7cc5003fa43c6c99f7d21f97d0b2e8c6a",
    "ablation_coherence": "a5231dd527e9e8a773d28a1b3ad38e4ac02910e974bf5f77833eb16970f665fb",
    "ablation_energy": "431de01a40f57078f119d322d3fcf8fde7f6259fd1a62f3c5e230ea189800282",
    "ablation_interleaving": "d90ed0fa97c4ed9210374adcceb8119b2286958fafa1a4971987b06ba46e7c81",
    "ablation_partitioning": "24516dc34d26349344c09d15bd7ec7aa663a4467e86337be5db6511bc5944cd7",
    "ablation_pull": "9f5f84817076e6da56566b0797d65922a1a27b9cf9a387a2740c1953042f45dc",
    "fig03": "d359e24dd482e23e1f623f051ab2f7d2172fa17f871727e10238b119586d344b",
    "fig05": "175da0f46f431101dfcf38bfa239aa3209c4d715f1ac948e5df8e2a11bdc81de",
    "fig07": "5849a282d987a1f795c047eecf67fa7e5ff4d6de139eb97a1a40a03eeff4d749",
    "fig08": "62f116e238032cfba0a208bf33e7e161f50516dd04fed67992770878b2373a90",
    "fig14": "8bd454822f6913ffad9b9ad96601a6969d2e841a67e05b1bf08fe934edc57a3c",
    "fig15": "4fa6efd1df19471c8119c930c293c58d8db7918720200946768c41c20f486810",
    "fig16": "e5bbe579e3b8ef9429211965413c7b9265ccd8d0df602ce640295a451065cdc6",
    "fig17": "0d01f7d70648487b7056b59d936337dbde7ff151342c18d067d6294acb060866",
    "fig18": "0cad4e4f5d23d9088d0eaf81a9ab775f85c39b5a16406f66c0164fc1b4236add",
    "fig20": "33018eba4f74e74d83c34fe791a3dfcf1baf76053e9d1325c2f1d9897869c9a3",
    "fig21": "4aeb83d0fc160620e946c21ccc265c389a98f1a97384bbc064dbe38a58eedad2",
    "fig22": "eb75c40c16af1b462783eff1c71edd54ac0f6c359b859e8150f37459036e164f",
    "fig23": "332537eb0ec297d31385f5a3e6819f3e8f44693338e81ea17ae6ed53970ccf86",
    "fig25": "92ae1cb933408d89e9a7e3c026bebc773b16a725daa062bd699bbf8394961636",
    "summary": "0f87c12a36fbe13b9c87aa45d5633cd6f00cea5ca3bbda8df98453153b841b5a",
}


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


@pytest.mark.parametrize("figure_id", BYTE_PINNED)
def test_figure_matches_committed_result(figure_id, golden_runner):
    title, headers, rows = render(FIGURES[figure_id], golden_runner)
    text = render_table(headers, rows, title=title) + "\n"
    assert text == (RESULTS / f"{figure_id}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("figure_id", sorted(TABLE_DIGESTS))
def test_figure_digest_at_reduced_scale(figure_id, tiny_runner):
    title, headers, rows = render(FIGURES[figure_id], tiny_runner)
    text = render_table(headers, rows, title=title)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == TABLE_DIGESTS[figure_id], (
        f"{figure_id}: reduced-scale table changed\n{text}"
    )


def test_every_table_is_pinned():
    assert not set(BYTE_PINNED) & set(TABLE_DIGESTS)
    assert set(BYTE_PINNED) | set(TABLE_DIGESTS) == set(FIGURES)


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

    def compute(self, spec):
        raise AssertionError(f"reducer started a simulation: {spec.label()}")


def test_every_figure_reduces_without_simulating():
    """Each reducer gets its grid, every spec mapped to one stand-in result,
    and a runner that cannot simulate.  The stand-in tracks coherence, so
    it carries every optional record a reducer reads."""
    tracked = scaled_config().replace(track_coherence=True)
    simulated = _TinyRunner(pr_iterations=1, cache_dir=None).run_many(
        [RunSpec("Hygra", "BFS", "FS", tracked)]
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
    """Record every simulated system the runner builds (one per simulation;
    the runner imports the class when it simulates)."""
    built: list[str] = []
    real = system_mod.SimulatedSystem

    def counting(config):
        built.append(config.name)
        return real(config)

    monkeypatch.setattr(system_mod, "SimulatedSystem", counting)
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
