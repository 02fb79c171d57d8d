"""The ChGraph execution engine: hardware-accelerated GLA (§V).

Per chunk and phase, the decoupled engine beside the core does the Generate
and Load work — the HCG walks the chunk's OAG to emit the chain order, the
CP prefetches each element's bipartite edges into the L2 — while the core
only pops tuples and runs Apply.  The engine's busy time (whichever of HCG
or CP dominates, plus a DRAM-bandwidth floor) overlaps the core's compute
through the phase timer's ``max(core, engine)`` rule.

The CP's run-ahead is bounded by the 32-deep FIFOs, so the model interleaves
prefetch and apply element-by-element: lines are consumed while still hot.
That interleaved walk is the shared push loop
(:func:`~repro.engine.base.process_elements`) with the loads bound on the
engine channel; the event-triggered prefetcher baseline runs it too.

Ablation switches reproduce Figure 16: ``use_hcg=False`` generates chains in
software (charged to the core), ``use_cp=False`` binds the same loop's loads
on the core's demand channel and charges no CP time.
"""

from __future__ import annotations

from repro.chgraph.hcg import HardwareChainGenerator, HcgPorts
from repro.core.chain import ChainGenerator
from repro.core.oag import Oag
from repro.engine.base import (
    ExecutionEngine,
    Phase,
    PhasePorts,
    dram_floor,
    process_elements,
)
from repro.engine.gla_soft import _SoftwareChainProbe
from repro.engine.resources import GlaResources
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk
from repro.sim.observe import InstrumentedSystem
from repro.sim.protocol import MemorySystem

__all__ = ["ChGraphEngine"]


class ChGraphEngine(ExecutionEngine):
    """Hardware-accelerated chain-driven hypergraph processing."""

    name = "ChGraph"

    def __init__(
        self,
        resources: GlaResources | None = None,
        use_hcg: bool = True,
        use_cp: bool = True,
        cache_dense_chains: bool = True,
    ) -> None:
        self.resources = resources
        self.use_hcg = use_hcg
        self.use_cp = use_cp
        # §VI-B optimization: dense (all-active) algorithms produce the same
        # chains every iteration, so they are generated once.  Disable to
        # measure that optimization's worth (the ``ablation_chain_cache``
        # figure).
        self.cache_dense_chains = cache_dense_chains
        if not use_hcg and use_cp:
            self.name = "ChGraph-CPonly"
        elif use_hcg and not use_cp:
            self.name = "ChGraph-HCGonly"
        elif not cache_dense_chains:
            self.name = "ChGraph-uncached"
        self._stats: dict[str, float] = {}
        self._dense_chain_cache: dict[str, list[list[int]]] = {}
        self._profiling = False
        self._max_chain_length = 0
        self._chain_fifo_depth = 0

    # -- setup ------------------------------------------------------------------

    def _prepare(self, hypergraph: Hypergraph, system: MemorySystem) -> None:
        if self.resources is None or self.resources.num_cores != (
            system.config.num_cores
        ):
            self.resources = GlaResources.build(hypergraph, system.config.num_cores)
        config = system.config
        self._hcg = HardwareChainGenerator(config, d_max=self.resources.d_max)
        self._sw_generator = ChainGenerator(d_max=self.resources.d_max)
        self._stats = {
            "chains": 0.0,
            "elements": 0.0,
            "inspections": 0.0,
            "generations": 0.0,
        }
        self._dense_chain_cache = {}
        # Occupancy stats are only worth collecting under instrumentation.
        self._profiling = isinstance(system, InstrumentedSystem)
        self._max_chain_length = 0
        self._chain_fifo_depth = system.config.chain_fifo_depth

    def _chain_stats(self) -> dict[str, float]:
        return dict(self._stats)

    def _fifo_stats(self) -> dict[str, float]:
        """Chain-FIFO occupancy: the HCG stalls once a chain outgrows it.

        The longest chain bounds how deep the FIFO ever fills; the depth
        itself caps it (Algorithm 3 emits and blocks at ``chain_fifo_depth``).
        Collected only under instrumentation.
        """
        if not self._profiling:
            return {}
        return {
            "chain_fifo_depth": float(self._chain_fifo_depth),
            "chain_fifo_peak": float(
                min(self._chain_fifo_depth, self._max_chain_length)
            ),
            "max_chain_length": float(self._max_chain_length),
        }

    # -- phase execution -----------------------------------------------------

    def _run_phase(self, phase: Phase) -> None:
        assert self.resources is not None
        system, spec = phase.system, phase.spec
        config = system.config
        dense = phase.algorithm.dense_frontier
        oags = self.resources.oags_for(spec.src_side)
        bases = self.resources.edge_position_bases(spec.src_side)
        cached_orders = (
            self._dense_chain_cache.get(spec.phase)
            if dense and self.cache_dense_chains
            else None
        )
        new_orders: list[list[int]] = []

        for chunk_index, chunk in enumerate(phase.chunks):
            core = chunk.core
            dram_before = system.dram_accesses()
            engine_cycles = 0.0

            # -- Generate ------------------------------------------------------
            if cached_orders is not None:
                order = cached_orders[chunk_index]
            else:
                order, gen_cycles = self._generate_chunk(
                    phase, chunk, oags[chunk_index], bases[chunk_index]
                )
                engine_cycles += gen_cycles
                new_orders.append(order)

            # -- Load + Apply, interleaved per element -------------------------
            cp_cost = process_elements(
                phase, core, order,
                PhasePorts.bind(phase, core, "engine" if self.use_cp else "read"),
                extra_tuple_cycles=config.fifo_pop_cycles,
            )
            if self.use_cp:
                engine_cycles += cp_cost.engine_cycles(
                    config.hw_stage_cycles, config.engine_mlp
                )

            # The engine cannot outrun its share of DRAM bandwidth.
            engine_cycles = max(
                engine_cycles,
                dram_floor(system, system.dram_accesses() - dram_before),
            )
            system.charge_engine(core, engine_cycles)

        if (
            cached_orders is None
            and dense
            and self.cache_dense_chains
            and not phase.frontier.is_empty()
        ):
            self._dense_chain_cache[spec.phase] = new_orders

    def _generate_chunk(
        self, phase: Phase, chunk: Chunk, oag: Oag, edge_base: int
    ) -> tuple[list[int], float]:
        """Generate one chunk's chain order over the phase's source elements.

        Returns ``(order, engine_cycles)``: the HCG's cost is engine-side;
        the ``use_hcg=False`` ablation runs Algorithm 3 in software, whose
        probe charges the core directly, so it returns 0.0 engine cycles.
        """
        system = phase.system
        dense = phase.algorithm.dense_frontier
        active = phase.frontier.bitmap[chunk.first : chunk.last]
        if self.use_hcg:
            chains, cost = self._hcg.generate(
                active, oag, HcgPorts.bind(system, chunk.core), edge_base, dense
            )
            cycles = cost.engine_cycles(system.config.hw_stage_cycles)
        else:
            probe = _SoftwareChainProbe(system, chunk.core, dense, edge_base, oag)
            chains = self._sw_generator.generate(active, oag, probe=probe)
            cycles = 0.0
        self._stats["generations"] += 1
        self._stats["chains"] += chains.num_chains
        self._stats["elements"] += chains.num_elements
        self._stats["inspections"] += chains.neighbor_inspections
        if self._profiling and chains.chains:
            longest = max(len(chain) for chain in chains.chains)
            if longest > self._max_chain_length:
                self._max_chain_length = longest
        return list(chains.order()), cycles
