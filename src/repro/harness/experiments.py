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
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping

import numpy as np

from repro.chgraph.area import area_report
from repro.chgraph.cycle_model import record_hcg_microops, simulate_phase
from repro.engine import RunResult
from repro.harness.datasets import GRAPH_DATASETS
from repro.harness.report import with_bars
from repro.harness.runner import PAPER_APPS, Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.generators import PAPER_DATASETS
from repro.hypergraph.partition import contiguous_chunks
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
from repro.hypergraph.stats import dataset_stats, overlap_curve
from repro.sim.config import SystemConfig, scaled_config, table1_config

__all__ = ["FIGURES", "Figure", "FigureData", "Table", "render"]

Table = tuple[str, list[str], list[list[object]]]

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
class Figure:
    """One paper table/figure: a declared run grid and its reducer.

    The grid is the cross product of the five axes; a figure with no
    engines declares no runs (config tables, dataset statistics).  Shrink
    a figure with :func:`dataclasses.replace` on any axis its reducer
    iterates; a reducer that does not sweep configs or preprocessings
    reads the default (``None``) one.
    """

    reduce: Callable[["Figure", "FigureData"], Table]
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
        self.dataset = runner.dataset
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
#: ablations (``repro bench --figures all`` runs them in this order).
FIGURES: dict[str, Figure] = {
    "table1": Figure(_table1),
    "table2": Figure(_table2, datasets=PAPER_DATASETS),
    "fig02": Figure(_fig02, engines=("Hygra", "GLA", "ChGraph"), **_PR_WEB),
    "fig03": Figure(_fig03, engines=("Hygra", "GLA", "ChGraph"), **_PR_WEB),
    "fig05": Figure(
        _fig05, engines=("Hygra",), apps=("BFS", "PR", "BC", "CC"),
        datasets=PAPER_DATASETS,
    ),
    "fig07": Figure(
        _fig07, engines=("HATS-V", "ChGraph"), apps=("BFS", "PR"),
        datasets=PAPER_DATASETS,
    ),
    "fig08": Figure(_fig08, datasets=PAPER_DATASETS),
    "fig14": Figure(
        _fig14, engines=("Hygra", "GLA", "ChGraph"), apps=PAPER_APPS,
        datasets=PAPER_DATASETS,
    ),
    "fig15": Figure(
        _fig15, engines=("Hygra", "ChGraph"), apps=PAPER_APPS,
        datasets=PAPER_DATASETS,
    ),
    "fig16": Figure(
        _fig16, engines=("GLA", "ChGraph-HCGonly", "ChGraph"), apps=PAPER_APPS,
        datasets=("WEB",),
    ),
    "fig17": Figure(
        _fig17, engines=("ChGraph",), **_PR_WEB,
        preprocessings=tuple(
            PreprocessSpec(d_max=d) for d in (2, 4, 8, 16, 32, 64)
        ),
    ),
    "fig18": Figure(
        _fig18, engines=("ChGraph",), **_PR_WEB,
        preprocessings=tuple(
            PreprocessSpec(w_min=w) for w in (1, 3, 9, 17, 33, 65)
        ),
    ),
    "fig19": Figure(
        _fig19, engines=("ChGraph",), **_PR_WEB,
        configs=tuple(scaled_config(llc_kb=llc) for llc in (2, 4, 6, 8)),
    ),
    "fig20": Figure(
        _fig20, engines=("Hygra", "ChGraph"), **_PR_WEB,
        configs=tuple(scaled_config(num_cores=n) for n in (4, 8, 16)),
    ),
    "fig21": Figure(_fig21, datasets=PAPER_DATASETS),
    "fig22": Figure(
        _fig22, engines=("Hygra", "ChGraph"), apps=("BFS", "PR", "CC"),
        datasets=PAPER_DATASETS,
    ),
    "fig23": Figure(
        _fig23, engines=("EventPrefetcher", "ChGraph", "Hygra"),
        apps=("BFS", "PR", "CC"), datasets=PAPER_DATASETS,
    ),
    "fig24": Figure(
        _fig24, engines=("Hygra", "ChGraph"), **_PR_WEB,
        preprocessings=(None, REORDER_PREPROCESS),
    ),
    "fig25": Figure(
        _fig25, engines=("Ligra", "HATS-V", "ChGraph"),
        apps=("Adsorption", "SSSP"), datasets=GRAPH_DATASETS,
    ),
    "vi_e": Figure(_vi_e),
    "summary": Figure(
        _summary, engines=("Hygra", "ChGraph", "GLA"), apps=("BFS", "PR", "CC"),
        datasets=PAPER_DATASETS,
    ),
    "ablation_amortization": Figure(
        _ablation_amortization, engines=("Hygra", "ChGraph"), apps=PAPER_APPS,
        datasets=("WEB",),
    ),
    "ablation_chain_cache": Figure(
        _ablation_chain_cache,
        engines=("GLA", "GLA-cached", "ChGraph-uncached", "ChGraph"), **_PR_WEB,
    ),
    "ablation_coherence": Figure(
        _ablation_coherence, engines=("Hygra", "ChGraph"), apps=("PR",),
        datasets=("OK", "WEB"),
        configs=(scaled_config().replace(track_coherence=True),),
    ),
    "ablation_cycle_model": Figure(_ablation_cycle_model, datasets=("WEB",)),
    "ablation_energy": Figure(
        _ablation_energy, engines=("Hygra", "ChGraph"), apps=("PR",),
        datasets=("OK", "WEB"),
    ),
    "ablation_interleaving": Figure(
        _ablation_interleaving, engines=("Hygra", "Hygra-interleaved"),
        apps=("PR",), datasets=("OK", "WEB"),
    ),
    "ablation_partitioning": Figure(
        _ablation_partitioning, engines=("Hygra", "ChGraph"), **_PR_WEB,
        preprocessings=(None, PARTITION_PREPROCESS),
    ),
    "ablation_pull": Figure(
        _ablation_pull, engines=("Hygra", "Hygra-pull", "ChGraph"),
        apps=("PR", "BFS", "CC"), datasets=("WEB",),
    ),
    "ablation_wmin_storage": Figure(
        _ablation_wmin_storage, datasets=("WEB",),
        preprocessings=tuple(
            PreprocessSpec(w_min=w) for w in (1, 3, 9, 17, 33)
        ),
    ),
}
