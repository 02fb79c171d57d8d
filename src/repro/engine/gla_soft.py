"""The software-only GLA engine (Figure 3's "GLA" bars).

Chain generation runs on the general-purpose core: every OAG probe is a
dependency-chained load (DFS pointer chasing cannot overlap misses) and
every neighbor inspection costs branchy bookkeeping cycles.  This is the
overhead that, per the paper, "may outweigh the benefits achieved from the
chain-driven idea" — the Apply side is identical to Hygra's, only the
schedule order changes.

The software engine regenerates chains every iteration (pass
``cache_dense_chains=True``, registered as ``GLA-cached``, to reuse a dense
algorithm's first-iteration chains).  Regeneration is the default because
it reproduces the paper's measured behaviour — a software-GLA slowdown that
is stable in the iteration count (Fig 3 reports 1.14x slower for
10-iteration PR) — while PR still shows the mildest slowdown of all apps:
its dense phases are the largest, so generation is best amortized (the
§VI-B observation).
"""

from __future__ import annotations

import math

from repro.core.chain import ChainGenerator, ChainProbe
from repro.core.gla import generate_schedules
from repro.core.oag import Oag
from repro.engine.base import ExecutionEngine, Phase, PhasePorts, process_elements
from repro.engine.resources import GlaResources
from repro.hypergraph.hypergraph import Hypergraph
from repro.sim.layout import ArrayId
from repro.sim.protocol import MemorySystem

__all__ = ["SoftwareGlaEngine"]


class _SoftwareChainProbe(ChainProbe):
    """Charges chain-generation work to the core's serial demand path.

    Besides the dependency-chained OAG loads, software exploration pays the
    Algorithm 3 Line 7 cost the hardware never does: sorting the current
    node's active neighbors by weight (``k log k`` comparison-swaps for an
    OAG row of degree ``k``).
    """

    def __init__(
        self,
        system: MemorySystem,
        core: int,
        dense: bool,
        edge_base: int,
        oag: Oag,
    ) -> None:
        self.system = system
        self.core = core
        self.dense = dense
        self.edge_base = edge_base
        self.oag = oag
        self.explore_cycles = system.config.sw_explore_cycles
        self.read_bitmap = system.port(core, ArrayId.BITMAP, "serial")
        self.read_offset = system.port(core, ArrayId.OAG_OFFSET, "serial")
        self.read_edge = system.port(core, ArrayId.OAG_EDGE, "serial")

    def on_root_scan(self, element: int) -> None:
        if not self.dense:
            self.read_bitmap(element)
        self.system.charge_compute(self.core, self.system.config.frontier_op_cycles)

    def on_offsets_fetch(self, node: int) -> None:
        self.read_offset(node)
        self.read_offset(node + 1)
        degree = self.oag.csr.degree(node)
        if degree > 1:
            comparisons = degree * max(1.0, math.log2(degree))
            self.system.charge_compute(
                self.core, comparisons * self.system.config.sw_sort_cycles
            )

    def on_neighbor_inspect(self, node: int, position: int) -> None:
        self.read_edge(self.edge_base + position)
        self.system.charge_compute(self.core, self.explore_cycles)

    def on_select(self, element: int) -> None:
        self.system.charge_compute(
            self.core, self.system.config.sw_generate_cycles
        )


class SoftwareGlaEngine(ExecutionEngine):
    """Chain-driven scheduling executed entirely in software."""

    name = "GLA"

    def __init__(
        self,
        resources: GlaResources | None = None,
        cache_dense_chains: bool = False,
    ) -> None:
        self.resources = resources
        self.cache_dense_chains = cache_dense_chains
        if cache_dense_chains:
            self.name = "GLA-cached"
        self._generator: ChainGenerator | None = None
        self._stats: dict[str, float] = {}
        self._dense_schedule_cache: dict[str, list[list[int]]] = {}

    def _prepare(self, hypergraph: Hypergraph, system: MemorySystem) -> None:
        if self.resources is None or self.resources.num_cores != (
            system.config.num_cores
        ):
            self.resources = GlaResources.build(
                hypergraph, system.config.num_cores
            )
        self._generator = ChainGenerator(d_max=self.resources.d_max)
        self._stats = {
            "chains": 0.0,
            "elements": 0.0,
            "inspections": 0.0,
            "generations": 0.0,
        }
        self._dense_schedule_cache = {}

    def _chain_stats(self) -> dict[str, float]:
        return dict(self._stats)

    def _run_phase(self, phase: Phase) -> None:
        assert self.resources is not None and self._generator is not None
        system, spec, frontier, chunks = (
            phase.system, phase.spec, phase.frontier, phase.chunks
        )
        dense = phase.algorithm.dense_frontier
        cacheable = dense and self.cache_dense_chains
        cached = cacheable and spec.phase in self._dense_schedule_cache
        if cached:
            orders = self._dense_schedule_cache[spec.phase]
        else:
            oags = self.resources.oags_for(spec.src_side)
            bases = self.resources.edge_position_bases(spec.src_side)
            probes = [
                _SoftwareChainProbe(system, chunk.core, dense, base, oag)
                for chunk, base, oag in zip(chunks, bases, oags)
            ]
            schedules = generate_schedules(
                frontier, chunks, oags, self._generator, probes
            )
            orders = [schedule.order() for schedule in schedules]
            self._stats["generations"] += 1
            for schedule in schedules:
                self._stats["chains"] += schedule.chains.num_chains
                self._stats["elements"] += schedule.chains.num_elements
                self._stats["inspections"] += schedule.chains.neighbor_inspections
            if cacheable and not frontier.is_empty():
                self._dense_schedule_cache[spec.phase] = orders

        sw_load = system.config.sw_load_cycles
        for chunk, order in zip(chunks, orders):
            process_elements(
                phase,
                chunk.core,
                order,
                PhasePorts.bind(phase, chunk.core, "read"),
                extra_element_cycles=sw_load,
                extra_tuple_cycles=sw_load,
            )
