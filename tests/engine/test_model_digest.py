"""One digest over every registry engine's exact simulated numbers.

The figure goldens render cycles rounded to whole numbers, so a refactor
that drifts a float in the last place passes them.  This test hashes each
run's cycle totals and energy as ``float.hex``, every cache, probe, DRAM
and coherence counter, the chain statistics and the result bytes, over
every registry engine x PR/BFS/CC x two configurations (four cores with a
2 KB LLC; two cores with MESI tracking and an inclusive L3) on one seeded
affiliation hypergraph plus a small 2-uniform graph, which Ligra also
accepts.  A changed digest means the model's numbers changed: that is a
model change and is recorded as one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from repro.engine.registry import engine_names
from repro.errors import EngineError
from repro.harness.differential import seeded_graphs
from repro.harness.runner import Runner
from repro.hypergraph.generators import two_uniform_graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.sim.config import SystemConfig, scaled_config
from repro.sim.system import SimulatedSystem

#: sha256 of :func:`model_lines` over the whole grid.
MODEL_DIGEST = "607e261b694d9b1591df55b9d8d974c8c65cd0b8c3f74ec8d269e4ab43fd8906"

ALGORITHMS = ("PR", "BFS", "CC")

#: sha256 of :func:`model_lines` over the other five apps on the first
#: configuration only.
OTHER_APPS_DIGEST = "2a964dbf8a40467cbf9d3570dee08fbc4d3e22d590d10081c64587f24848eb00"

OTHER_ALGORITHMS = ("BC", "MIS", "k-core", "SSSP", "Adsorption")

CONFIGS = (
    scaled_config(num_cores=4, llc_kb=2),
    scaled_config(num_cores=2, llc_kb=2).replace(
        track_coherence=True, inclusive_l3=True
    ),
)


def small_graph() -> Hypergraph:
    """A seeded 2-uniform graph: 160 vertices, 480 distinct edges."""
    rng = random.Random(22)
    edges: set[tuple[int, int]] = set()
    while len(edges) < 480:
        a, b = rng.randrange(160), rng.randrange(160)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return two_uniform_graph(sorted(edges), num_vertices=160, name="graph-22")


def _hex(value: float) -> str:
    return float(value).hex()


def model_lines(
    runner: Runner, engine: str, algorithm: str, graph: Hypergraph,
    config: SystemConfig,
) -> list[str]:
    """The canonical text of one run's numbers."""
    system = SimulatedSystem(config)
    result = runner.engine(engine, graph, config).run(
        runner.algorithm(algorithm), graph, system
    )
    hierarchy = system.hierarchy
    breakdown = system.breakdown
    energy = system.energy()
    lines = [
        f"{engine}/{algorithm}/{graph.name}/{config.name}/{config.num_cores}",
        f"iterations {result.iterations}",
        "cycles " + " ".join(
            _hex(value)
            for value in (
                result.cycles,
                result.compute_cycles,
                result.memory_stall_cycles,
                breakdown.engine_cycles,
            )
        ),
        "energy " + " ".join(
            _hex(getattr(energy, field.name)) for field in dataclasses.fields(energy)
        ),
        f"dram {result.dram_accesses} {result.dram_writebacks}",
        "dram_by_array " + " ".join(
            f"{array.name}={count}"
            for array, count in sorted(result.dram_by_array.items())
        ),
        "writebacks_by_array " + " ".join(
            f"{array.name}={count}"
            for array, count in sorted(result.dram_writebacks_by_array.items())
        ),
        f"probes {hierarchy.demand_probes} {hierarchy.engine_probes}",
        "chain_stats " + " ".join(
            f"{key}={_hex(value)}" for key, value in sorted(result.chain_stats.items())
        ),
        "result " + hashlib.sha256(result.result.tobytes()).hexdigest(),
    ]
    caches = [("l1", cache) for cache in hierarchy.l1]
    caches += [("l2", cache) for cache in hierarchy.l2]
    caches.append(("l3", hierarchy.l3))
    for level, cache in caches:
        stats = cache.stats
        lines.append(
            f"{level} {stats.hits} {stats.misses} {stats.evictions} "
            f"{stats.writebacks}"
        )
    if hierarchy.coherence is not None:
        lines.append(f"coherence {hierarchy.coherence.stats}")
    return lines


def model_digest(
    algorithms: tuple[str, ...] = ALGORITHMS,
    configs: tuple[SystemConfig, ...] = CONFIGS,
) -> tuple[str, int]:
    """``(sha256, runs)`` over the grid, by default the whole one."""
    runner = Runner(pr_iterations=2, cache_dir=None)
    digest = hashlib.sha256()
    runs = 0
    for graph in (*seeded_graphs(1), small_graph()):
        for config in configs:
            for algorithm in algorithms:
                for engine in engine_names():
                    try:
                        lines = model_lines(runner, engine, algorithm, graph, config)
                    except EngineError:
                        continue  # Ligra rejects hypergraphs
                    digest.update("\n".join(lines).encode() + b"\n")
                    runs += 1
    return digest.hexdigest(), runs


def test_model_digest_is_pinned():
    digest, runs = model_digest()
    # Ligra runs only on the 2-uniform graph.
    assert runs == 11 * 3 * 2 + 12 * 3 * 2
    assert digest == MODEL_DIGEST


def test_other_apps_digest_is_pinned():
    """The other five apps, exactly, on the first configuration.

    :data:`MODEL_DIGEST` covers PR, BFS and CC only, and the figure pins
    round their cycles, so this pins the other apps' updates.
    """
    digest, runs = model_digest(OTHER_ALGORITHMS, CONFIGS[:1])
    assert runs == 11 * 5 + 12 * 5
    assert digest == OTHER_APPS_DIGEST
