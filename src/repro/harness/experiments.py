"""The reproduction registry: every paper table/figure as data.

Each :class:`Figure` declares its run grid once — engines × apps × datasets
× configs × preprocessings — plus a reducer that builds ``(title, headers,
rows)``, ready for :func:`repro.harness.report.render_table`, from the
results of exactly that grid.  :data:`FIGURES` holds them in the paper's
order, followed by the ablations and extensions the paper argues from
(``ablation_*``); ``repro bench``, the benchmarks and the tests all
resolve figures through it.

The runner executes a grid (serially, or sharded across worker processes by
:mod:`repro.harness.parallel`); the reducer only reads, through a
:class:`FigureData` view that exposes the runner's memoized dataset,
resources and pipeline accessors but no way to start a simulation.  Looking
up a spec outside the declared grid raises ``KeyError``, so every result a
figure consumes is one it declared.

Each figure also states its paper claim once, as a :class:`Claim`: the
conditions its table must meet, judged on the table's printed text, and
for the paper's figures the EXPERIMENTS.md row that compares the paper's
value with the committed ``results/<id>.txt``.  ``repro bench``, the
figure benchmark and the tests all judge a table through it.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.engine.result import RunResult
from repro.harness.datasets import GRAPH_DATASETS
from repro.harness.report import format_value, parse_table, with_bars
from repro.harness.runner import PAPER_APPS, Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.generators import PAPER_DATASETS
from repro.hypergraph.partition import contiguous_chunks
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
from repro.sim.config import SystemConfig, scaled_config, table1_config

__all__ = [
    "FIGURES", "Claim", "Figure", "FigureData", "Table", "render",
    "claims_table", "with_claims_table",
]

Table = tuple[str, list[str], list[list[object]]]
#: A table's rows as :func:`~repro.harness.report.parse_table` reads them
#: back: ints, floats and strings.
Rows = list[list[Any]]

#: Cycles charged per elementary preprocessing operation when converting
#: host-side preprocessing work into simulated core cycles (Figs 21/22).
#: Bipartite CSR construction is branchy and allocation-heavy; the OAG's
#: pair-counting inner loop is a tight streaming kernel, hence cheaper
#: per operation.
PREPROCESS_OP_CYCLES = 2.0
OAG_OP_CYCLES = 0.5

#: The Figure 24 preprocessing record: run the spatial locality reordering
#: as a registered pipeline stage in front of the engine, instead of
#: hand-building reordered engines outside the runner.
REORDER_PREPROCESS = PreprocessSpec(stages=(StageSpec("locality-reorder"),))

#: The partitioning ablation's record: overlap-aware renumbering as a stage.
PARTITION_PREPROCESS = PreprocessSpec(stages=(StageSpec("overlap-renumber"),))

#: Figure 8's sharing thresholds.  The paper plots 2..7 for datasets with
#: mean degrees 3-37; the scaled stand-ins keep paper-scale hyperedge
#: degrees but higher vertex degrees, so the discriminating thresholds sit
#: higher.
OVERLAP_THRESHOLDS = (2, 8, 32, 64)


# -- the registry types ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Claim:
    """What the paper claims for one figure, judged on its printed table.

    ``conditions`` maps each condition the table must meet to a predicate
    over the rows :func:`~repro.harness.report.parse_table` reads back, so
    every judge sees the numbers at the precision the table prints.  A
    claim with a ``measured`` formatter is one row of EXPERIMENTS.md:
    ``experiment`` labels it, ``paper`` quotes the paper, ``measured``
    formats the table's numbers and ``verdict`` compares the two.
    """

    conditions: Mapping[str, Callable[[Rows], bool]]
    experiment: str = ""
    paper: str = ""
    measured: Callable[[Rows], str] | None = None
    verdict: str = ""

    def failures(self, text: str) -> list[str]:
        """The conditions that do not hold on a rendered table's text."""
        _, _, rows = parse_table(text)
        return [name for name, holds in self.conditions.items() if not holds(rows)]


def _col(rows: Rows, index: int) -> list[Any]:
    return [row[index] for row in rows]


def _where(rows: Rows, value: object, at: int = 0) -> Rows:
    return [row for row in rows if row[at] == value]


def _cell(rows: Rows, label: object, index: int, at: int = 0) -> Any:
    """Cell ``index`` of the first row whose cell ``at`` is ``label``."""
    return _where(rows, label, at)[0][index]


def _cells(rows: Rows) -> list[Any]:
    """Every cell but the first column's."""
    return [value for row in rows for value in row[1:]]


def _mean(values: list[Any]) -> float:
    return float(sum(values) / len(values))


def _span(values: list[Any]) -> str:
    """``min–max`` of a column, each as the table prints it."""
    return f"{format_value(min(values))}–{format_value(max(values))}"


def _fig15_sum(rows: Rows, system: str, column: int) -> Any:
    """One system's Figure 15 total of a column: 3 all, 5 incident, 6 value
    or 7 OAG accesses."""
    return sum(_col(_where(rows, system, 2), column))


@dataclasses.dataclass(frozen=True)
class Figure:
    """One paper table/figure: a declared run grid, its reducer and the
    claim its table must show.

    The grid is the cross product of the five axes; a figure with no
    engines declares no runs (config tables, dataset statistics).  Shrink
    a figure with :func:`dataclasses.replace` on any axis its reducer
    iterates; a reducer that does not sweep configs or preprocessings
    reads the default (``None``) one.
    """

    reduce: Callable[["Figure", "FigureData"], Table]
    claim: Claim
    engines: tuple[str, ...] = ()
    apps: tuple[str, ...] = ()
    datasets: tuple[str, ...] = ()
    configs: tuple[SystemConfig | None, ...] = (None,)
    preprocessings: tuple[PreprocessSpec | None, ...] = (None,)

    def specs(self) -> list[RunSpec]:
        """The declared grid in a fixed order (the shard planner's input)."""
        return [
            RunSpec(engine, app, dataset, config, preprocessing=preprocessing)
            for config in self.configs
            for preprocessing in self.preprocessings
            for app in self.apps
            for dataset in self.datasets
            for engine in self.engines
        ]


class FigureData:
    """What a reducer may read: its own grid's results and the runner's
    memoized ``dataset``/``resources``/``pipeline`` accessors."""

    def __init__(
        self,
        figure: Figure,
        runner: Runner,
        results: Mapping[RunSpec, RunResult],
    ) -> None:
        self._engines = figure.engines
        self._results = {spec: results[spec] for spec in figure.specs()}
        self.dataset = runner._dataset
        self.resources = runner.resources
        self.pipeline = runner.pipeline

    def runs(
        self,
        app: str,
        dataset: str,
        config: SystemConfig | None = None,
        preprocessing: PreprocessSpec | None = None,
    ) -> list[RunResult]:
        """The result of every declared engine on one grid cell, in order."""
        return [
            self._results[
                RunSpec(engine, app, dataset, config, preprocessing=preprocessing)
            ]
            for engine in self._engines
        ]


def render(
    figure: Figure,
    runner: Runner,
    results: Mapping[RunSpec, RunResult] | None = None,
) -> Table:
    """Reduce ``figure`` from ``results``, a ``{spec: RunResult}`` covering
    its grid (default: run the grid serially on ``runner``)."""
    if results is None:
        results = runner.run_many(figure.specs(), jobs=1)
    return figure.reduce(figure, FigureData(figure, runner, results))


# -- configuration tables ----------------------------------------------------


def _table1(fig: Figure, data: FigureData) -> Table:
    config = table1_config()
    rows = [
        ["Cores", f"{config.num_cores} cores, x86-64, {config.frequency_ghz}GHz, OOO"],
        ["L1 caches", f"{config.l1_size // 1024}KB per-core, {config.l1_assoc}-way, "
                      f"{config.l1_latency}-cycle latency"],
        ["L2 cache", f"{config.l2_size // 1024}KB per-core, {config.l2_assoc}-way, "
                     f"{config.l2_latency}-cycle latency"],
        ["L3 cache", f"{config.l3_size // (1024 * 1024)}MB shared, {config.l3_banks} banks, "
                     f"{config.l3_assoc}-way, inclusive={config.inclusive_l3}, "
                     f"{config.l3_latency}-cycle bank latency"],
        ["NoC", f"4x4 mesh, X-Y routing, {config.noc_router_latency}-cycle routers, "
                f"{config.noc_link_latency}-cycle links"],
        ["Coherence", "presence + dirty bits, 64B lines (synchronous engines)"],
        ["Main memory", f"{config.dram_controllers} controllers, "
                        f"{config.dram_gbps_per_controller} GB/s each"],
    ]
    return "Table I: simulated system configuration", ["Structure", "Configuration"], rows


def _table2(fig: Figure, data: FigureData) -> Table:
    from repro.hypergraph.stats import dataset_stats

    rows = []
    for key in fig.datasets:
        stats = dataset_stats(data.dataset(key))
        rows.append([
            stats.name,
            stats.num_vertices,
            stats.num_hyperedges,
            stats.num_bipartite_edges,
            round(stats.size_mb, 2),
        ])
    return (
        "Table II: hypergraph datasets (scaled stand-ins)",
        ["Dataset", "#Vertices", "#Hyperedges", "#BEdges", "Size (MB)"],
        rows,
    )


# -- headline figures ------------------------------------------------------


def _fig02(fig: Figure, data: FigureData) -> Table:
    """GLA reduces main-memory accesses vs Hygra (PR on WEB)."""
    (app,), (dataset,) = fig.apps, fig.datasets
    hygra, gla, chg = data.runs(app, dataset)
    rows = [
        ["Hygra", hygra.dram_accesses, 1.0],
        ["GLA", gla.dram_accesses, hygra.dram_accesses / gla.dram_accesses],
        ["ChGraph", chg.dram_accesses, hygra.dram_accesses / chg.dram_accesses],
    ]
    return (
        f"Figure 2: main-memory accesses, {app} on {dataset}",
        ["System", "DRAM accesses", "Reduction vs Hygra", ""],
        with_bars(rows, 1),
    )


def _fig03(fig: Figure, data: FigureData) -> Table:
    """Software GLA is slower than Hygra; ChGraph reverses it (PR on WEB)."""
    (app,), (dataset,) = fig.apps, fig.datasets
    hygra, gla, chg = data.runs(app, dataset)
    rows = [
        ["Hygra", hygra.cycles, 1.0],
        ["GLA", gla.cycles, gla.speedup_over(hygra)],
        ["ChGraph", chg.cycles, chg.speedup_over(hygra)],
    ]
    return (
        f"Figure 3: execution time, {app} on {dataset} "
        "(speedup vs Hygra; <1 is slower)",
        ["System", "Cycles", "Speedup vs Hygra", ""],
        with_bars(rows, 1),
    )


def _fig05(fig: Figure, data: FigureData) -> Table:
    """Fraction of Hygra execution time stalled on main memory."""
    rows = [
        [app, *[data.runs(app, d)[0].memory_stall_fraction for d in fig.datasets]]
        for app in fig.apps
    ]
    return (
        "Figure 5: fraction of time stalled on memory (Hygra)",
        ["App", *fig.datasets],
        rows,
    )


def _fig07(fig: Figure, data: FigureData) -> Table:
    """ChGraph vs the HATS-V variant, normalized to HATS-V."""
    rows = []
    for app in fig.apps:
        for dataset in fig.datasets:
            hats, chg = data.runs(app, dataset)
            rows.append([app, dataset, chg.speedup_over(hats)])
    return (
        "Figure 7: ChGraph speedup over HATS-V",
        ["App", "Dataset", "ChGraph vs HATS-V"],
        rows,
    )


def _fig08(fig: Figure, data: FigureData) -> Table:
    """Sharable ratios of vertices and hyperedges (two panels in one table)."""
    from repro.hypergraph.stats import overlap_curve

    rows = []
    for side in ("vertex", "hyperedge"):
        for dataset in fig.datasets:
            curve = overlap_curve(data.dataset(dataset), side, OVERLAP_THRESHOLDS)
            rows.append([side, dataset, *[curve[t] for t in OVERLAP_THRESHOLDS]])
    return (
        "Figure 8: sharable ratio vs sharing threshold",
        ["Side", "Dataset", *[f">={t}" for t in OVERLAP_THRESHOLDS]],
        rows,
    )


def _fig14(fig: Figure, data: FigureData) -> Table:
    """Hygra vs software GLA vs ChGraph across apps and datasets."""
    rows = []
    for app in fig.apps:
        for dataset in fig.datasets:
            hygra, gla, chg = data.runs(app, dataset)
            rows.append([
                app,
                dataset,
                gla.speedup_over(hygra),
                chg.speedup_over(hygra),
                chg.dram_reduction_over(hygra),
            ])
    return (
        "Figure 14: speedup over Hygra (GLA < 1 means slower)",
        ["App", "Dataset", "GLA", "ChGraph", "DRAM reduction"],
        rows,
    )


def _fig15(fig: Figure, data: FigureData) -> Table:
    """Main-memory access breakdown by array group, Hygra (H) vs ChGraph (C)."""
    groups = ("offset", "incident", "value", "oag", "other")
    rows = []
    for app in fig.apps:
        for dataset in fig.datasets:
            for name, run in zip(("H", "C"), data.runs(app, dataset)):
                breakdown = run.dram_by_group
                rows.append([
                    app, dataset, name, run.dram_accesses,
                    *[breakdown[g] for g in groups],
                ])
    return (
        "Figure 15: DRAM access breakdown (H=Hygra, C=ChGraph)",
        ["App", "Dataset", "Sys", "Total", *groups],
        rows,
    )


def _fig16(fig: Figure, data: FigureData) -> Table:
    """Benefit breakdown of HCG and CP over the software GLA baseline."""
    (dataset,) = fig.datasets
    rows = []
    for app in fig.apps:
        gla, hcg, full = data.runs(app, dataset)
        rows.append([
            app,
            hcg.speedup_over(gla),
            full.speedup_over(hcg),
            full.speedup_over(gla),
        ])
    return (
        f"Figure 16: hardware benefit breakdown on {dataset} (vs software GLA)",
        ["App", "+HCG", "+CP (over HCG)", "Full ChGraph"],
        rows,
    )


# -- sensitivity sweeps --------------------------------------------------------


def _sweep(fig: Figure, data: FigureData) -> list[tuple[Any, Any, int]]:
    """``(config, preprocessing, cycles)`` for every point of a
    one-engine, one-workload sweep, in grid order."""
    (app,), (dataset,) = fig.apps, fig.datasets
    return [
        (config, pre, data.runs(app, dataset, config, pre)[0].cycles)
        for config in fig.configs
        for pre in fig.preprocessings
    ]


def _fig17(fig: Figure, data: FigureData) -> Table:
    """ChGraph PR performance vs maximum exploration depth D_max."""
    sweep = [(pre.d_max, cycles) for _, pre, cycles in _sweep(fig, data)]
    first, base = sweep[0]
    rows = [[d, cycles, base / cycles] for d, cycles in sweep]
    return (
        f"Figure 17: D_max sweep, PR on {fig.datasets[0]} "
        f"(speedup vs D_max={first})",
        ["D_max", "Cycles", "Speedup", ""],
        with_bars(rows, 2),
    )


def _fig18(fig: Figure, data: FigureData) -> Table:
    """ChGraph PR performance vs the OAG pruning threshold W_min.

    The paper sweeps 1..9 against datasets whose overlap weights are mostly
    1-3; the scaled stand-ins carry paper-scale hyperedge degrees (45-58),
    so their weights sit near 20-45 and the decline appears at
    correspondingly larger thresholds — same shape, shifted axis.
    """
    sweep = [(pre.w_min, cycles) for _, pre, cycles in _sweep(fig, data)]
    first, base = sweep[0]
    rows = [[w, cycles, base / cycles] for w, cycles in sweep]
    return (
        f"Figure 18: W_min sweep, PR on {fig.datasets[0]} "
        f"(performance vs W_min={first})",
        ["W_min", "Cycles", "Relative performance", ""],
        with_bars(rows, 2),
    )


def _fig19(fig: Figure, data: FigureData) -> Table:
    """ChGraph PR on WEB vs LLC size (paper: 8-32 MB; scaled: 2-8 KB)."""
    sweep = [
        (config.l3_size // 1024, cycles)
        for config, _, cycles in _sweep(fig, data)
    ]
    base = sweep[0][1]
    rows = [[f"{llc}KB", cycles, base / cycles] for llc, cycles in sweep]
    return (
        f"Figure 19: LLC size sweep, ChGraph PR on {fig.datasets[0]}",
        ["LLC", "Cycles", "Speedup vs smallest", ""],
        with_bars(rows, 2),
    )


def _fig20(fig: Figure, data: FigureData) -> Table:
    """PR scaling with core count, ChGraph vs Hygra."""
    (app,), (dataset,) = fig.apps, fig.datasets
    rows = []
    for config in fig.configs:
        hygra, chg = data.runs(app, dataset, config=config)
        rows.append([
            config.num_cores, hygra.cycles, chg.cycles, chg.speedup_over(hygra),
        ])
    return (
        f"Figure 20: core-count scaling, PR on {dataset}",
        ["Cores", "Hygra cycles", "ChGraph cycles", "Speedup"],
        rows,
    )


# -- preprocessing ------------------------------------------------------------


def _preprocess_costs(
    data: FigureData, dataset_key: str
) -> tuple[float, float, int]:
    """(hygra_cycles, chgraph_extra_cycles, oag_bytes) for preprocessing.

    Hygra builds the two bipartite CSR directions (~4 ops per bipartite
    edge); ChGraph additionally builds the per-chunk OAGs, whose elementary
    operation count the builder reports.
    """
    hypergraph = data.dataset(dataset_key)
    config = scaled_config()
    bipartite_ops = 4 * hypergraph.num_bipartite_edges
    resources = data.resources(hypergraph, config)
    hygra_cycles = bipartite_ops * PREPROCESS_OP_CYCLES / config.num_cores
    oag_cycles = resources.build_operations * OAG_OP_CYCLES / config.num_cores
    return hygra_cycles, oag_cycles, resources.storage_bytes()


def _fig21(fig: Figure, data: FigureData) -> Table:
    """Extra preprocessing time and storage of ChGraph over Hygra."""
    rows = []
    for dataset in fig.datasets:
        hygra_cycles, oag_cycles, oag_bytes = _preprocess_costs(data, dataset)
        hypergraph = data.dataset(dataset)
        rows.append([
            dataset,
            100.0 * oag_cycles / hygra_cycles,
            100.0 * oag_bytes / hypergraph.size_bytes(),
        ])
    return (
        "Figure 21: preprocessing overhead of ChGraph vs Hygra",
        ["Dataset", "Extra preprocess time (%)", "Extra storage (%)"],
        rows,
    )


def _fig22(fig: Figure, data: FigureData) -> Table:
    """Total running time including preprocessing, normalized to Hygra."""
    rows = []
    for app in fig.apps:
        for dataset in fig.datasets:
            hygra_pre, oag_pre, _ = _preprocess_costs(data, dataset)
            hygra, chg = data.runs(app, dataset)
            total_hygra = hygra.cycles + hygra_pre
            total_chg = chg.cycles + hygra_pre + oag_pre
            rows.append([app, dataset, total_hygra / total_chg])
    return (
        "Figure 22: total time (incl. preprocessing) speedup over Hygra",
        ["App", "Dataset", "ChGraph speedup"],
        rows,
    )


# -- alternatives -----------------------------------------------------------


def _fig23(fig: Figure, data: FigureData) -> Table:
    """ChGraph vs the event-driven hardware prefetcher."""
    rows = []
    for app in fig.apps:
        for dataset in fig.datasets:
            pref, chg, hygra = data.runs(app, dataset)
            rows.append([
                app,
                dataset,
                pref.speedup_over(hygra),
                chg.speedup_over(pref),
            ])
    return (
        "Figure 23: vs event-driven prefetcher",
        ["App", "Dataset", "Prefetcher vs Hygra", "ChGraph vs Prefetcher"],
        rows,
    )


def _fig24(fig: Figure, data: FigureData) -> Table:
    """Spatial reordering does not beat chain scheduling (PR).

    The reordered systems are ordinary runs whose spec carries the
    ``locality-reorder`` pipeline stage; the reordering cost comes from the
    runner's memoized pipeline result, so the comparison charges exactly
    the preprocessing work the runs actually performed.
    """
    (app,), (dataset,) = fig.apps, fig.datasets
    plain, reorder = fig.preprocessings
    pipeline = data.pipeline(data.dataset(dataset), reorder)
    reorder_cycles = pipeline.cost_accesses * PREPROCESS_OP_CYCLES

    hygra, chg = data.runs(app, dataset, preprocessing=plain)
    hygra_re, chg_re = data.runs(app, dataset, preprocessing=reorder)
    rows = [
        ["Hygra", hygra.cycles, 1.0],
        ["Hygra+Reorder", hygra_re.cycles + reorder_cycles,
         hygra.cycles / (hygra_re.cycles + reorder_cycles)],
        ["ChGraph", chg.cycles, hygra.cycles / chg.cycles],
        ["ChGraph+Reorder", chg_re.cycles + reorder_cycles,
         hygra.cycles / (chg_re.cycles + reorder_cycles)],
    ]
    return (
        f"Figure 24: reordering comparison, {app} on {dataset} (incl. reorder cost)",
        ["System", "Cycles", "Speedup vs Hygra"],
        rows,
    )


def _fig25(fig: Figure, data: FigureData) -> Table:
    """Ordinary-graph apps: ChGraph vs Ligra and HATS (§VI-I)."""
    rows = []
    for app in fig.apps:
        for dataset in fig.datasets:
            ligra, hats, chg = data.runs(app, dataset)
            rows.append([
                app,
                dataset,
                chg.speedup_over(ligra),
                chg.speedup_over(hats),
            ])
    return (
        "Figure 25: graph applications (speedups of ChGraph)",
        ["App", "Graph", "vs Ligra", "vs HATS"],
        rows,
    )


def _vi_e(fig: Figure, data: FigureData) -> Table:
    """The §VI-E area/power/storage accounting."""
    from repro.chgraph.area import area_report

    report = area_report()
    rows = [
        ["Stack storage", f"{report.stack_bytes} B"],
        ["Chain FIFO storage", f"{report.chain_fifo_bytes} B"],
        ["Bipartite-edge FIFO storage", f"{report.tuple_fifo_bytes} B"],
        ["Config registers", f"{report.register_bytes} B"],
        ["Total area", f"{report.total_mm2:.3f} mm2"],
        ["Area vs core", f"{report.area_fraction_of_core:.2%}"],
        ["Total power", f"{report.total_mw:.0f} mW"],
        ["Power vs core TDP", f"{report.power_fraction_of_core:.2%}"],
    ]
    return "Section VI-E: ChGraph area and power", ["Quantity", "Value"], rows


def _summary(fig: Figure, data: FigureData) -> Table:
    """The abstract's claims, condensed: per-app speedup and DRAM reduction."""
    rows = []
    for app in fig.apps:
        speedups = []
        reductions = []
        gla = []
        for dataset in fig.datasets:
            hygra, chg, soft = data.runs(app, dataset)
            speedups.append(chg.speedup_over(hygra))
            reductions.append(chg.dram_reduction_over(hygra))
            gla.append(soft.speedup_over(hygra))
        rows.append([
            app,
            min(speedups), max(speedups),
            min(reductions), max(reductions),
            sum(gla) / len(gla),
        ])
    return (
        "Headline summary (paper: speedup 3.39-4.73x, DRAM 2.77-4.56x, GLA < 1)",
        ["App", "Speedup min", "max", "DRAM red min", "max", "GLA mean"],
        rows,
    )


# -- ablations and extensions ---------------------------------------------


def _ablation_amortization(fig: Figure, data: FigureData) -> Table:
    """Preprocessing amortization across applications (§VI-G): the OAG
    build is paid once, and every app run after it shares the cost."""
    (dataset,) = fig.datasets
    hygra_pre, oag_pre, _ = _preprocess_costs(data, dataset)
    hygra_total = hygra_pre
    chg_total = hygra_pre + oag_pre
    rows: list[list[object]] = []
    for count, app in enumerate(fig.apps, start=1):
        hygra, chg = data.runs(app, dataset)
        hygra_total += hygra.cycles
        chg_total += chg.cycles
        rows.append([count, app, hygra_total / chg_total])
    return (
        "Extension: ChGraph total-time speedup as apps amortize the OAG "
        f"build ({dataset})",
        ["#Apps run", "Latest app", "Cumulative speedup"],
        rows,
    )


def _ablation_chain_cache(fig: Figure, data: FigureData) -> Table:
    """Dense-chain reuse across iterations (§VI-B), off and on per engine."""
    (app,), (dataset,) = fig.apps, fig.datasets
    labels = ("GLA (regenerate)", "GLA (cache)",
              "ChGraph (regenerate)", "ChGraph (cache)")
    rows: list[list[object]] = [
        [label, run.cycles, run.chain_stats.get("generations", 0)]
        for label, run in zip(labels, data.runs(app, dataset))
    ]
    return (
        f"Ablation: dense-chain caching, {app} on {dataset}",
        ["Configuration", "Cycles", "Generations"],
        rows,
    )


def _ablation_coherence(fig: Figure, data: FigureData) -> Table:
    """MESI coherence traffic under each scheduler (Table I's protocol)."""
    (app,), (config,) = fig.apps, fig.configs
    rows: list[list[object]] = []
    for dataset in fig.datasets:
        for name, run in zip(fig.engines, data.runs(app, dataset, config)):
            stats = run.coherence
            assert stats is not None, "declared config must track coherence"
            rows.append([dataset, name, stats.invalidations, stats.downgrades,
                         stats.read_misses_served_remote])
    return (
        f"Extension: MESI coherence traffic, {app}",
        ["Dataset", "System", "Invalidations", "Downgrades", "Remote reads"],
        rows,
    )


def _ablation_cycle_model(fig: Figure, data: FigureData) -> Table:
    """The cycle-level model vs the engines' closed-form timing (§VI-A)."""
    from repro.chgraph.cycle_model import record_hcg_microops, simulate_phase

    (dataset,) = fig.datasets
    config = scaled_config()
    hypergraph = data.dataset(dataset)
    resources = data.resources(hypergraph, config)
    chunks = contiguous_chunks(hypergraph.num_hyperedges, config.num_cores)
    # Representative latencies: engine accesses mostly hit the L2, with the
    # occasional L3/DRAM round trip folded into the mean.
    hcg_lat = float(config.l2_latency + 4)
    cp_lat = float(config.l2_latency + 18)
    rows: list[list[object]] = []
    for chunk, oag in list(zip(chunks, resources.hyperedge_oags))[:4]:
        ops = record_hcg_microops(
            np.ones(len(chunk), dtype=bool), oag, dense=True
        )
        cycle = simulate_phase(
            ops, hypergraph, "hyperedge", config,
            hcg_latency=lambda: hcg_lat, cp_latency=lambda: cp_lat,
        )
        # The engines' closed form for the same chunk.
        tuples = cycle.tuples
        selects = sum(1 for op in ops if op.kind == "select")
        hcg_mem = sum(op.memory_accesses for op in ops)
        closed_engine = (
            len(ops) * config.hw_stage_cycles + hcg_mem * hcg_lat
            + tuples * config.hw_stage_cycles
            + tuples * 2 * cp_lat / config.engine_mlp
        )
        closed_core = tuples * (config.apply_cycles + config.fifo_pop_cycles)
        closed_total = max(closed_engine, closed_core)
        rows.append([f"chunk {chunk.core}", selects, tuples, cycle.total_cycles,
                     closed_total, cycle.total_cycles / closed_total])
    return (
        f"Extension: cycle model vs closed-form engine timing (PR/{dataset} chunks)",
        ["Chunk", "Elements", "Tuples", "Cycle model", "Closed form", "Ratio"],
        rows,
    )


def _ablation_energy(fig: Figure, data: FigureData) -> Table:
    """Per-system energy with the §VI-A McPAT/DDR-style energy model."""
    (app,) = fig.apps
    rows: list[list[object]] = []
    for dataset in fig.datasets:
        for name, run in zip(fig.engines, data.runs(app, dataset)):
            report = run.energy
            assert report is not None, "runner-built results carry energy"
            rows.append([dataset, name, report.dram_total_nj, report.total_nj,
                         report.memory_fraction])
    return (
        f"Extension: energy, {app} (nJ)",
        ["Dataset", "System", "DRAM nJ", "Total nJ", "DRAM fraction"],
        rows,
    )


def _ablation_interleaving(fig: Figure, data: FigureData) -> Table:
    """Chunk-serial vs round-robin core interleaving (Hygra DRAM counts)."""
    (app,) = fig.apps
    rows: list[list[object]] = []
    for dataset in fig.datasets:
        serial, interleaved = data.runs(app, dataset)
        rows.append([dataset, serial.dram_accesses, interleaved.dram_accesses,
                     interleaved.dram_accesses / serial.dram_accesses])
    return (
        f"Extension: core-interleaving sensitivity (Hygra {app} DRAM accesses)",
        ["Dataset", "Chunk-serial", "Round-robin", "Ratio"],
        rows,
    )


def _ablation_partitioning(fig: Figure, data: FigureData) -> Table:
    """Overlap-aware renumbering vs default contiguous chunking."""
    (app,), (dataset,) = fig.apps, fig.datasets
    labels = ("contiguous ids", "chain-renumbered")
    runs = [data.runs(app, dataset, preprocessing=p) for p in fig.preprocessings]
    baseline_cycles = runs[0][1].cycles
    rows: list[list[object]] = [
        [label, chgraph.cycles, chgraph.speedup_over(hygra),
         chgraph.dram_reduction_over(hygra), baseline_cycles / chgraph.cycles]
        for label, (hygra, chgraph) in zip(labels, runs)
    ]
    return (
        f"Extension: partitioning ablation, {app} on {dataset}",
        ["Partitioning", "ChGraph cycles", "vs Hygra", "DRAM red.", "vs default"],
        rows,
    )


def _ablation_pull(fig: Figure, data: FigureData) -> Table:
    """Push vs pull traversal, and ChGraph vs the better direction."""
    (dataset,) = fig.datasets
    rows: list[list[object]] = []
    for app in fig.apps:
        push, pull, chgraph = data.runs(app, dataset)
        best = min(push.cycles, pull.cycles)
        rows.append([app, push.cycles, pull.cycles, pull.cycles / push.cycles,
                     best / chgraph.cycles])
    return (
        f"Extension: push vs pull on {dataset} (ChGraph vs the better direction)",
        ["App", "Push cycles", "Pull cycles", "Pull/Push", "ChGraph speedup"],
        rows,
    )


def _ablation_wmin_storage(fig: Figure, data: FigureData) -> Table:
    """The W_min space/locality trade (§IV-A): OAG storage per threshold."""
    (dataset,) = fig.datasets
    hypergraph = data.dataset(dataset)
    config = scaled_config()
    baseline_bytes = hypergraph.size_bytes()
    rows: list[list[object]] = []
    for preprocessing in fig.preprocessings:
        assert preprocessing is not None, "the sweep declares each W_min"
        resources = data.resources(hypergraph, config, preprocessing)
        oag_bytes = resources.storage_bytes()
        edges = sum(oag.num_edges for oag in resources.hyperedge_oags)
        rows.append([preprocessing.w_min, edges, oag_bytes,
                     100.0 * oag_bytes / baseline_bytes])
    return (
        f"Ablation: OAG storage vs W_min on {dataset}",
        ["W_min", "H-OAG edges", "OAG bytes", "Overhead (%)"],
        rows,
    )


# -- the registry ---------------------------------------------------------------

_PR_WEB = dict(apps=("PR",), datasets=("WEB",))

#: Every reproduced table/figure by id, in the paper's order and then the
#: ablations (``repro bench --figures all`` runs them in this order).  Each
#: claim's predicates take the table's parsed rows ``r``.
FIGURES: dict[str, Figure] = {
    "table1": Figure(_table1, claim=Claim({
        "the rows are Table I's seven structures": lambda r: _col(r, 0) == [
            "Cores", "L1 caches", "L2 cache", "L3 cache", "NoC", "Coherence", "Main memory",
        ],
        "16 cores": lambda r: "16 cores" in r[0][1],
        "a 32MB shared L3": lambda r: "32MB shared" in r[3][1],
    }, "**Table I** (system config)",
        "16 cores, 32KB/128KB/32MB caches, 4×4 mesh, 4 DDR controllers",
        lambda r: "; ".join(row[1].split(",")[0] for row in r),
        "✓ identical values in `table1_config()`; benches run its scaled variant")),
    "table2": Figure(_table2, datasets=PAPER_DATASETS, claim=Claim({
        "the five paper datasets, in order": lambda r: _col(r, 0) == list(PAPER_DATASETS),
        "FS and WEB have more vertices than hyperedges":
            lambda r: all(_cell(r, key, 1) > _cell(r, key, 2) for key in ("FS", "WEB")),
        "OK, LJ and OG have more hyperedges than vertices":
            lambda r: all(_cell(r, key, 2) > _cell(r, key, 1) for key in ("OK", "LJ", "OG")),
        "OG has the densest hyperedges": lambda r: max(r, key=lambda x: x[3] / x[2])[0] == "OG",
    }, "**Table II** (datasets)",
        "5 hypergraphs, 0.4–4.6 GB; FS/WEB have V>H, others H>V; OG densest",
        lambda r: f"{len(r)} scaled stand-ins, {_span(_col(r, 4))} MB",
        "✓ V:H and density orderings preserved")),
    "fig02": Figure(_fig02, engines=("Hygra", "GLA", "ChGraph"), **_PR_WEB, claim=Claim({
        "GLA cuts DRAM accesses over 1.2x": lambda r: _cell(r, "GLA", 2) > 1.2,
        "ChGraph cuts DRAM accesses over 1.2x": lambda r: _cell(r, "ChGraph", 2) > 1.2,
    }, "**Fig 2** (GLA DRAM accesses, PR/WEB)", "4.09× fewer vs Hygra",
        lambda r: f"{format_value(r[1][2])}× fewer ({r[0][1]:,} → {r[1][1]:,}); "
        f"ChGraph {format_value(r[2][2])}×",
        "≈ magnitude capped by chunk-scale reuse (DESIGN.md §7)")),
    "fig03": Figure(_fig03, engines=("Hygra", "GLA", "ChGraph"), **_PR_WEB, claim=Claim({
        "software GLA is slower than Hygra": lambda r: _cell(r, "GLA", 2) < 1.0,
        "ChGraph is over 2x faster than Hygra": lambda r: _cell(r, "ChGraph", 2) > 2.0,
    }, "**Fig 3** (GLA vs ChGraph time, PR/WEB)", "GLA 1.14× slower; ChGraph 4.39× faster",
        lambda r: f"GLA {1 / r[1][2]:.2f}× slower ({format_value(r[1][2])} speedup); "
        f"ChGraph {format_value(r[2][2])}× faster",
        "✓ (GLA's slowdown is stable in the iteration count)")),
    "fig05": Figure(
        _fig05, engines=("Hygra",), apps=("BFS", "PR", "BC", "CC"), datasets=PAPER_DATASETS,
        claim=Claim({
            "every stall fraction is within 0.1-1":
                lambda r: 0.1 <= min(_cells(r)) <= max(_cells(r)) <= 1.0,
            "the mean stall fraction exceeds 0.4": lambda r: _mean(_cells(r)) > 0.4,
            "PR on WEB stalls over half its time": lambda r: _cell(r, "PR", 4) > 0.5,
        }, "**Fig 5** (memory stalls, Hygra)", "51% mean, up to 84% (PR/WEB)",
            lambda r: f"mean {_mean(_cells(r)):.0%}, {min(_cells(r)):.0%}–"
            f"{max(_cells(r)):.0%}; PR/WEB {_cell(r, 'PR', 4):.0%}",
            "≈ same regime, less spread (scaled caches are uniformly starved)"),
    ),
    "fig07": Figure(
        _fig07, engines=("HATS-V", "ChGraph"), apps=("BFS", "PR"), datasets=PAPER_DATASETS,
        claim=Claim(
            {"ChGraph beats HATS-V on every (app, dataset)": lambda r: min(_col(r, 2)) > 1.0},
            "**Fig 7** (vs HATS-V)", "ChGraph 2.56–3.01× faster",
            lambda r: f"{_span(_col(r, 2))}× faster",
            "≈ direction holds everywhere; HATS-V's two-hop penalty shrinks with "
            "cache-resident structure"),
    ),
    "fig08": Figure(_fig08, datasets=PAPER_DATASETS, claim=Claim({
        "over half of every dataset's vertices are shared at >=2":
            lambda r: min(_col(_where(r, "vertex"), 2)) > 0.5,
        "every vertex curve falls with the threshold": lambda r: all(
            row[2:] == sorted(row[2:], reverse=True) for row in _where(r, "vertex")
        ),
        # Vertex rows come first: a dataset's first row is its vertex curve.
        "OK, LJ and OG share at least as much as FS and WEB at >=64":
            lambda r: min(_cell(r, key, 5, 1) for key in ("OK", "LJ", "OG"))
            >= max(_cell(r, key, 5, 1) for key in ("FS", "WEB")),
    }, "**Fig 8** (overlap ratios)",
        "55–96% of vertices shared by ≥2 hyperedges; OG/LJ/OK heavy vs FS/WEB light",
        lambda r: f"{min(_col(r, 2)):.0%} of vertices at ≥2; at ≥64: "
        + ", ".join(f"{row[1]} {format_value(row[5])}" for row in _where(r, "vertex")),
        "≈ thresholds shifted with degree scale: the denser stand-ins share more at ≥2, "
        "and the heavy/light split appears at ≥64")),
    "fig14": Figure(
        _fig14, engines=("Hygra", "GLA", "ChGraph"), apps=PAPER_APPS, datasets=PAPER_DATASETS,
        claim=Claim({
            "six apps on five datasets": lambda r: len(r) == 30,
            "software GLA loses to Hygra on average": lambda r: _mean(_col(r, 2)) < 1.0,
            "ChGraph beats Hygra everywhere": lambda r: min(_col(r, 3)) > 1.0,
            "ChGraph's mean speedup exceeds 2x": lambda r: _mean(_col(r, 3)) > 2.0,
            "ChGraph cuts DRAM accesses on average": lambda r: _mean(_col(r, 4)) > 1.0,
            "PR has the mildest GLA slowdown": lambda r: _mean(_col(_where(r, "PR"), 2))
            >= _mean([row[2] for row in r if row[0] != "PR"]),
        }, "**Fig 14** (6 apps × 5 datasets)",
            "GLA 1.13–1.62× slower (PR mildest); ChGraph 3.39–4.73× faster (avg 4.12×); "
            "DRAM 2.77–4.56× fewer",
            lambda r: f"GLA {_span(_col(r, 2))} speedup, mean {_mean(_col(r, 2)):.2f} "
            f"(PR {_mean(_col(_where(r, 'PR'), 2)):.2f}); ChGraph {_span(_col(r, 3))}× "
            f"(k-core {_span(_col(_where(r, 'k-core'), 3))}×); DRAM {_span(_col(r, 4))}× fewer",
            "✓ speedups (k-core weakest, see Fig 15); DRAM reduction capped by scale"),
    ),
    "fig15": Figure(
        _fig15, engines=("Hygra", "ChGraph"), apps=PAPER_APPS, datasets=PAPER_DATASETS,
        claim=Claim({
            "value arrays take over 60% of Hygra's DRAM accesses":
                lambda r: _fig15_sum(r, "H", 6) / _fig15_sum(r, "H", 3) > 0.6,
            "Hygra never touches the OAG": lambda r: _fig15_sum(r, "H", 7) == 0,
            "the OAG takes under 20% of ChGraph's DRAM accesses":
                lambda r: 0.0 < _fig15_sum(r, "C", 7) / _fig15_sum(r, "C", 3) < 0.2,
            "ChGraph fetches fewer value-array lines":
                lambda r: _fig15_sum(r, "C", 6) < _fig15_sum(r, "H", 6),
            "ChGraph fetches at least as many incident-array lines":
                lambda r: _fig15_sum(r, "C", 5) >= _fig15_sum(r, "H", 5),
        }, "**Fig 15** (DRAM breakdown)",
            "value arrays >90% of Hygra's accesses; ChGraph cuts them, slightly raises "
            "incident; OAG 6.9–12.1%",
            lambda r: "; ".join([
                f"value arrays {_fig15_sum(r, 'H', 6) / _fig15_sum(r, 'H', 3):.1%} of Hygra's",
                f"ChGraph cuts them {_fig15_sum(r, 'H', 6) / _fig15_sum(r, 'C', 6):.2f}× "
                f"and its total {_fig15_sum(r, 'H', 3) / _fig15_sum(r, 'C', 3):.2f}×",
                f"incident {_fig15_sum(r, 'C', 5) / _fig15_sum(r, 'H', 5) - 1:+.0%}",
                f"OAG {_fig15_sum(r, 'C', 7) / _fig15_sum(r, 'C', 3):.1%} of ChGraph's total",
            ]),
            "✓ (k-core's tiny cascading frontiers leave little reuse while still paying "
            "the OAG tax)"),
    ),
    "fig16": Figure(
        _fig16, engines=("GLA", "ChGraph-HCGonly", "ChGraph"), apps=PAPER_APPS,
        datasets=("WEB",),
        claim=Claim({
            "the HCG helps on average": lambda r: _mean(_col(r, 1)) > 1.0,
            "the CP helps on average": lambda r: _mean(_col(r, 2)) > 1.0,
            "the full engine keeps 95% of every app's HCG-only speedup":
                lambda r: all(row[3] >= row[1] * 0.95 for row in r),
            "the full engine is over 2x faster than GLA on average":
                lambda r: _mean(_col(r, 3)) > 2.0,
        }, "**Fig 16** (HCG/CP breakdown)",
            "HCG 4.42× over software GLA (92% of benefit); CP adds 1.37× (full ≈ 6×)",
            lambda r: f"HCG {_span(_col(r, 1))}×; CP adds {_span(_col(r, 2))}×; "
            f"full {_span(_col(r, 3))}× over GLA",
            "✗ split inverted: our cache-resident OAG shrinks the software generation cost "
            "HCG removes, so CP's latency hiding carries more (DESIGN.md §7)"),
    ),
    "fig17": Figure(
        _fig17, engines=("ChGraph",), **_PR_WEB,
        preprocessings=tuple(PreprocessSpec(d_max=d) for d in (2, 4, 8, 16, 32, 64)),
        claim=Claim({
            "D_max 16 is at least as fast as D_max 2": lambda r: _cell(r, 16, 2) >= r[0][2],
            "D_max 16 is within 5% of the best D_max":
                lambda r: _cell(r, 16, 2) >= 0.95 * max(_col(r, 2)),
        }, "**Fig 17** (D_max sweep)", "improves to a sweet spot at 16, declines past it",
            lambda r: " → ".join(format_value(row[2]) for row in r)
            + f" over D_max {r[0][0]}–{r[-1][0]}",
            "✓ peak at 16 (no decline past it: our chains are shorter than 16 already)"),
    ),
    "fig18": Figure(
        _fig18, engines=("ChGraph",), **_PR_WEB,
        preprocessings=tuple(PreprocessSpec(w_min=w) for w in (1, 3, 9, 17, 33, 65)),
        claim=Claim({
            "W_min 1 is the baseline": lambda r: _cell(r, 1, 2) == 1.0,
            "W_min 3 keeps over 80% of the performance": lambda r: _cell(r, 3, 2) > 0.8,
            "W_min 65 is below the best W_min": lambda r: _cell(r, 65, 2) < max(_col(r, 2)),
            "W_min 65 is no faster than W_min 3": lambda r: _cell(r, 65, 2) <= _cell(r, 3, 2),
        }, "**Fig 18** (W_min sweep)", "best at 1, −1.26% at 3, degrades by 9",
            lambda r: ", ".join(f"{format_value(row[2])} @ {row[0]}" for row in r),
            "≈ same shape at weight-scaled thresholds (DESIGN.md §7)"),
    ),
    "fig19": Figure(
        _fig19, engines=("ChGraph",), **_PR_WEB,
        configs=tuple(scaled_config(llc_kb=llc) for llc in (2, 4, 6, 8)),
        claim=Claim({
            "the largest LLC is at least as fast as the smallest": lambda r: r[-1][2] >= 1.0,
            "the largest LLC gains under 3x": lambda r: r[-1][2] < 3.0,
        }, "**Fig 19** (LLC sweep)", "1.30× from 8→32 MB, mild for ChGraph",
            lambda r: f"{format_value(r[-1][2])}× from {r[0][0]} to {r[-1][0]}",
            "✓ mild improvement"),
    ),
    "fig20": Figure(
        _fig20, engines=("Hygra", "ChGraph"), **_PR_WEB,
        configs=tuple(scaled_config(num_cores=n) for n in (4, 8, 16)),
        claim=Claim({
            "ChGraph gets faster with every core count": lambda r: r[0][2] > r[1][2] > r[2][2],
            "ChGraph's 8->16 core gain is at most ~its 4->8 gain":
                lambda r: r[0][2] / r[1][2] >= r[1][2] / r[2][2] * 0.9,
            "ChGraph beats Hygra at every core count": lambda r: min(_col(r, 3)) > 1.0,
        }, "**Fig 20** (core scaling)",
            "improves with cores, growth rate decreases; ChGraph scales better",
            lambda r: "ChGraph " + " → ".join(format_value(c) for c in _col(r, 2))
            + f" cycles; {_span(_col(r, 3))}× over Hygra", "✓"),
    ),
    "fig21": Figure(_fig21, datasets=PAPER_DATASETS, claim=Claim({
        "ChGraph preprocesses longer on every dataset": lambda r: min(_col(r, 1)) > 0,
        "ChGraph's extra storage is within 0-100% on every dataset":
            lambda r: 0 < min(_col(r, 2)) <= max(_col(r, 2)) < 100,
    }, "**Fig 21** (preprocessing)", "+13.6–46% time, +13.9–20.4% storage",
        lambda r: f"+{_span(_col(r, 1))}% time, +{_span(_col(r, 2))}% storage",
        "✓ time in band; storage above it (dense sibling overlap inflates OAG edges)")),
    "fig22": Figure(
        _fig22, engines=("Hygra", "ChGraph"), apps=("BFS", "PR", "CC"), datasets=PAPER_DATASETS,
        claim=Claim(
            {"ChGraph wins on average, preprocessing included": lambda r: _mean(_col(r, 2)) > 1},
            "**Fig 22** (total time incl. preprocessing)", "ChGraph still 2.20–3.89× faster",
            lambda r: f"{_span(_col(r, 2))}× faster", "✓"),
    ),
    "fig23": Figure(
        _fig23, engines=("EventPrefetcher", "ChGraph", "Hygra"), apps=("BFS", "PR", "CC"),
        datasets=PAPER_DATASETS,
        claim=Claim({
            "the prefetcher beats Hygra on average": lambda r: _mean(_col(r, 2)) > 1.0,
            "ChGraph beats the prefetcher on average": lambda r: _mean(_col(r, 3)) > 1.0,
        }, "**Fig 23** (vs event-driven prefetcher)",
            "prefetcher helps; ChGraph still 1.56–2.88× faster",
            lambda r: f"prefetcher {_span(_col(r, 2))}× over Hygra; "
            f"ChGraph {_span(_col(r, 3))}× over prefetcher",
            "✓ ordering (ChGraph > prefetcher > Hygra)"),
    ),
    "fig24": Figure(
        _fig24, engines=("Hygra", "ChGraph"), **_PR_WEB,
        preprocessings=(None, REORDER_PREPROCESS),
        claim=Claim({
            "ChGraph beats reordered Hygra":
                lambda r: _cell(r, "ChGraph", 2) > _cell(r, "Hygra+Reorder", 2),
            "ChGraph beats Hygra": lambda r: _cell(r, "ChGraph", 2) > 1.0,
            "reordered Hygra stays under 2x reordered ChGraph":
                lambda r: _cell(r, "Hygra+Reorder", 2) < _cell(r, "ChGraph+Reorder", 2) * 2,
        }, "**Fig 24** (vs reordering)", "reordering's cost offsets its benefit; no win",
            lambda r: "; ".join(f"{row[0]} {format_value(row[2])}×" for row in r[1:]),
            "✓ reordering is a net loss once its cost is charged"),
    ),
    "fig25": Figure(
        _fig25, engines=("Ligra", "HATS-V", "ChGraph"), apps=("Adsorption", "SSSP"),
        datasets=GRAPH_DATASETS,
        claim=Claim({
            "ChGraph beats Ligra on average": lambda r: _mean(_col(r, 2)) > 1.0,
            "ChGraph is within 0.3-5x of HATS everywhere":
                lambda r: 0.3 < min(_col(r, 3)) <= max(_col(r, 3)) < 5.0,
        }, "**Fig 25** (graph apps)", "2.13× over Ligra; ≈parity with HATS",
            lambda r: "; ".join(
                f"{app} {_span(_col(_where(r, app), 2))}× over Ligra"
                for app in dict.fromkeys(_col(r, 0))
            ) + f"; vs HATS {_span(_col(r, 3))}", "✓"),
    ),
    "vi_e": Figure(_vi_e, claim=Claim({
        "buffers 1216/128/768/84 B": lambda r: _col(r[:4], 1) == [
            "1216 B", "128 B", "768 B", "84 B",
        ],
        "the total area is 0.09x mm2, 0.26% of a core": lambda r: r[4][1].startswith("0.09")
        and r[5][1] == "0.26%",
        "the total power is 60-62 mW, 0.19% of a core's TDP":
            lambda r: r[6][1] in ("61 mW", "62 mW", "60 mW") and r[7][1] == "0.19%",
    }, "**§VI-E** (area/power)",
        "0.094 mm², 61 mW; 0.26% area, 0.19% TDP; buffers 1216/128/768/84 B",
        lambda r: ", ".join(_col(r[4:], 1)) + "; buffers "
        + "/".join(row[1].removesuffix(" B") for row in r[:4]) + " B",
        "✓ identical buffer derivation")),
    "summary": Figure(
        _summary, engines=("Hygra", "ChGraph", "GLA"), apps=("BFS", "PR", "CC"),
        datasets=PAPER_DATASETS,
        claim=Claim({
            "every app's ChGraph beats Hygra everywhere": lambda r: min(_col(r, 1)) > 1.0,
            "every app's DRAM accesses shrink everywhere": lambda r: min(_col(r, 3)) > 1.0,
            "every app's software GLA loses on average": lambda r: max(_col(r, 5)) < 1.0,
        }),
    ),
    "ablation_amortization": Figure(
        _ablation_amortization, engines=("Hygra", "ChGraph"), apps=PAPER_APPS,
        datasets=("WEB",),
        claim=Claim({
            "ChGraph wins once every app has run": lambda r: r[-1][2] > 1.0,
            "running more apps does not shrink the speedup": lambda r: r[-1][2] >= r[0][2],
        }),
    ),
    "ablation_chain_cache": Figure(
        _ablation_chain_cache,
        engines=("GLA", "GLA-cached", "ChGraph-uncached", "ChGraph"), **_PR_WEB,
        # Rows: GLA regenerating, GLA caching, ChGraph regenerating, ChGraph caching.
        claim=Claim({
            "caching speeds up software GLA": lambda r: r[1][1] < r[0][1],
            "cached GLA generates once per phase kind": lambda r: r[1][2] == 2,
            "regenerating GLA generates more than twice": lambda r: r[0][2] > 2,
            "regeneration costs ChGraph less than software GLA":
                lambda r: r[2][1] / r[3][1] < r[0][1] / r[1][1],
        }),
    ),
    "ablation_coherence": Figure(
        _ablation_coherence, engines=("Hygra", "ChGraph"), apps=("PR",),
        datasets=("OK", "WEB"), configs=(scaled_config().replace(track_coherence=True),),
        claim=Claim({"every run invalidates shared lines": lambda r: min(_col(r, 2)) > 0}),
    ),
    "ablation_cycle_model": Figure(
        _ablation_cycle_model, datasets=("WEB",),
        claim=Claim({
            "the cycle model is within 2x of the closed form on every chunk":
                lambda r: 0.5 <= min(_col(r, 5)) <= max(_col(r, 5)) <= 2.0,
        }),
    ),
    "ablation_energy": Figure(
        _ablation_energy, engines=("Hygra", "ChGraph"), apps=("PR",), datasets=("OK", "WEB"),
        # Each dataset's rows: Hygra, then ChGraph.
        claim=Claim({
            "ChGraph spends less DRAM energy on every dataset":
                lambda r: all(c[2] < h[2] for h, c in zip(r[::2], r[1::2])),
            "ChGraph spends less total energy on every dataset":
                lambda r: all(c[3] < h[3] for h, c in zip(r[::2], r[1::2])),
            "ChGraph's DRAM fraction is within (0, 1] on every dataset":
                lambda r: 0.0 < min(_col(r[1::2], 4)) <= max(_col(r[1::2], 4)) <= 1.0,
        }),
    ),
    "ablation_interleaving": Figure(
        _ablation_interleaving, engines=("Hygra", "Hygra-interleaved"), apps=("PR",),
        datasets=("OK", "WEB"),
        claim=Claim({
            "chunk-serial and round-robin DRAM counts agree within 30%":
                lambda r: 0.7 <= min(_col(r, 3)) <= max(_col(r, 3)) <= 1.3,
        }),
    ),
    "ablation_partitioning": Figure(
        _ablation_partitioning, engines=("Hygra", "ChGraph"), **_PR_WEB,
        preprocessings=(None, PARTITION_PREPROCESS),
        claim=Claim({
            "renumbering costs ChGraph under 10%": lambda r: r[1][4] > 0.9,
            "ChGraph beats Hygra under either partitioning": lambda r: min(_col(r, 2)) > 1.0,
        }),
    ),
    "ablation_pull": Figure(
        _ablation_pull, engines=("Hygra", "Hygra-pull", "ChGraph"), apps=("PR", "BFS", "CC"),
        datasets=("WEB",),
        claim=Claim({
            "sparse BFS is over 1.2x slower pulling": lambda r: _cell(r, "BFS", 3) > 1.2,
            "dense PR's pull/push gap is smaller than BFS's":
                lambda r: _cell(r, "PR", 3) < _cell(r, "BFS", 3),
            "ChGraph beats the better direction on every app": lambda r: min(_col(r, 4)) > 1.0,
        }),
    ),
    "ablation_wmin_storage": Figure(
        _ablation_wmin_storage, datasets=("WEB",),
        preprocessings=tuple(PreprocessSpec(w_min=w) for w in (1, 3, 9, 17, 33)),
        claim=Claim({
            "H-OAG edges never grow with W_min":
                lambda r: _col(r, 1) == sorted(_col(r, 1), reverse=True),
            "OAG bytes never grow with W_min":
                lambda r: _col(r, 2) == sorted(_col(r, 2), reverse=True),
            "W_min 3 stores less than W_min 1": lambda r: r[1][2] < r[0][2],
        }),
    ),
}


# -- EXPERIMENTS.md ----------------------------------------------------------------

#: The markers around EXPERIMENTS.md's rendered paper-vs-measured table.
CLAIMS_BEGIN = "<!-- claims: rendered by benchmarks/test_figures.py; do not edit -->"
CLAIMS_END = "<!-- /claims -->"


def claims_table(results: Path) -> str:
    """EXPERIMENTS.md's paper-vs-measured table: one row per claim with a
    ``measured`` formatter, filled from the tables in ``results``."""
    lines = ["| Experiment | Paper | Measured (this repo) | Verdict |", "|---|---|---|---|"]
    for figure_id, figure in FIGURES.items():
        claim = figure.claim
        if claim.measured is not None:
            text = (results / f"{figure_id}.txt").read_text(encoding="utf-8")
            measured = claim.measured(parse_table(text)[2])
            lines.append(f"| {claim.experiment} | {claim.paper} | {measured} | {claim.verdict} |")
    return "\n".join(lines)


def with_claims_table(document: str, results: Path) -> str:
    """``document`` with the table between its claims markers rendered
    afresh from ``results``."""
    head, rest = document.split(CLAIMS_BEGIN)
    _, tail = rest.split(CLAIMS_END)
    return f"{head}{CLAIMS_BEGIN}\n{claims_table(results)}\n{CLAIMS_END}{tail}"
