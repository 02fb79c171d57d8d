"""The ChGraph execution engine: hardware-accelerated GLA (§V).

Per chunk and phase, the decoupled engine beside the core does the Generate
and Load work — the HCG walks the chunk's OAG to emit the chain order, the
CP prefetches each element's bipartite edges into the L2 — while the core
only pops tuples and runs Apply.  The engine's busy time (whichever of HCG
or CP dominates, plus a DRAM-bandwidth floor) overlaps the core's compute
through the phase timer's ``max(core, engine)`` rule.

The CP's run-ahead is bounded by the 32-deep FIFOs, so the model interleaves
prefetch and apply element-by-element: lines are consumed while still hot.

Ablation switches reproduce Figure 16: ``use_hcg=False`` generates chains in
software (charged to the core), ``use_cp=False`` leaves the loads on the
core's demand path.
"""

from __future__ import annotations

from repro.algorithms.base import AlgorithmState, HypergraphAlgorithm
from repro.chgraph.hcg import HardwareChainGenerator, HcgPorts
from repro.chgraph.prefetcher import CpCost
from repro.core.chain import ChainGenerator
from repro.core.oag import Oag
from repro.engine.base import ExecutionEngine, PhaseSpec, dram_floor
from repro.engine.gla_soft import _SoftwareChainProbe
from repro.engine.resources import GlaResources
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk
from repro.sim.layout import ArrayId
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
        # measure that optimization's worth (ablation bench).
        self.cache_dense_chains = cache_dense_chains
        if not use_hcg and use_cp:
            self.name = "ChGraph-CPonly"
        elif use_hcg and not use_cp:
            self.name = "ChGraph-HCGonly"
        self._stats: dict[str, float] = {}
        self._dense_chain_cache: dict[str, list[list[int]]] = {}
        self._profiling = False
        self._max_chain_length = 0
        self._chain_fifo_depth = 0

    # -- setup ------------------------------------------------------------------

    def _prepare(
        self,
        hypergraph: Hypergraph,
        system: MemorySystem,
        chunks: dict[str, list[Chunk]],
    ) -> None:
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

    def _run_phase(
        self,
        system: MemorySystem,
        hypergraph: Hypergraph,
        algorithm: HypergraphAlgorithm,
        state: AlgorithmState,
        spec: PhaseSpec,
        frontier: Frontier,
        chunks: list[Chunk],
        activated: Frontier,
    ) -> None:
        assert self.resources is not None
        config = system.config
        dense = algorithm.dense_frontier
        oags = self.resources.oags_for(spec.src_side)
        bases = self.resources.edge_position_bases(spec.src_side)
        cached_orders = (
            self._dense_chain_cache.get(spec.phase)
            if dense and self.cache_dense_chains
            else None
        )
        new_orders: list[list[int]] = []
        # Bound once per phase: the apply closure (never per chunk — the
        # algorithm may hand out a mirror it reconciles in end_phase) and a
        # plain-list mirror of the activation bitmap (numpy bool indexing
        # costs ~3x a list index; flushed back after the chunk loop).
        apply_fn = algorithm.phase_apply(state, hypergraph, spec.phase)
        activated_bitmap = activated.bitmap.tolist()

        for chunk_index, chunk in enumerate(chunks):
            core = chunk.core
            dram_before = system.dram_accesses()
            engine_cycles = 0.0

            # -- Generate ------------------------------------------------------
            if cached_orders is not None:
                order = cached_orders[chunk_index]
            else:
                order, gen_cycles, on_core = self._generate_chunk(
                    system, frontier, chunk, oags[chunk_index], bases[chunk_index],
                    dense, core,
                )
                if on_core:
                    system.charge_compute(core, gen_cycles)
                else:
                    engine_cycles += gen_cycles
                new_orders.append(order)

            # -- Load + Apply, interleaved per element -------------------------
            cp_cost = CpCost()
            self._process_chunk(
                system, hypergraph, algorithm, state, spec, core, order,
                activated_bitmap, cp_cost, apply_fn,
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

        activated.bitmap[:] = activated_bitmap

        if (
            cached_orders is None
            and dense
            and self.cache_dense_chains
            and not frontier.is_empty()
        ):
            self._dense_chain_cache[spec.phase] = new_orders

    def _generate_chunk(
        self,
        system: MemorySystem,
        frontier: Frontier,
        chunk: Chunk,
        oag: Oag,
        edge_base: int,
        dense: bool,
        core: int,
    ) -> tuple[list[int], float, bool]:
        """Generate one chunk's chain order.

        Returns ``(order, cycles, charged_on_core)``: with the HCG the cost
        is engine-side; the ``use_hcg=False`` ablation runs Algorithm 3 in
        software on the core instead.
        """
        active = frontier.bitmap[chunk.first : chunk.last]
        if self.use_hcg:
            chains, cost = self._hcg.generate(
                active, oag, HcgPorts.bind(system, core), edge_base, dense
            )
            cycles = cost.engine_cycles(system.config.hw_stage_cycles)
            on_core = False
        else:
            probe = _SoftwareChainProbe(system, core, dense, edge_base, oag=oag)
            chains = self._sw_generator.generate(active, oag, probe=probe)
            cycles = 0.0  # the probe charged the core directly
            on_core = True
        self._stats["generations"] += 1
        self._stats["chains"] += chains.num_chains
        self._stats["elements"] += chains.num_elements
        self._stats["inspections"] += chains.neighbor_inspections
        if self._profiling and chains.chains:
            longest = max(len(chain) for chain in chains.chains)
            if longest > self._max_chain_length:
                self._max_chain_length = longest
        return list(chains.order()), cycles, on_core

    def _process_chunk(
        self,
        system: MemorySystem,
        hypergraph: Hypergraph,
        algorithm: HypergraphAlgorithm,
        state: AlgorithmState,
        spec: PhaseSpec,
        core: int,
        order: list[int],
        activated_bitmap: list[bool],
        cp_cost: CpCost,
        apply_fn,
    ) -> None:
        """Interleaved CP prefetch + core Apply for one chunk."""
        config = system.config
        csr = hypergraph.side(spec.src_side)
        offsets = csr.offsets_list()
        indices = csr.indices_list()
        dense = algorithm.dense_frontier
        dst_degree = algorithm.reads_dst_degree
        per_tuple_core = (
            config.apply_cycles * algorithm.apply_cost_factor
            + config.fifo_pop_cycles
        )
        frontier_cycles = config.frontier_op_cycles
        charge = system.charge_compute
        read_dst_offset = system.port(core, spec.dst_offset, "read")
        write_dst = system.port(core, spec.dst_value, "write")
        write_bitmap = system.port(core, ArrayId.BITMAP, "write")

        if not self.use_cp:
            # Ablation: loads stay on the core's demand path.
            read_src_offset = system.port(core, spec.src_offset, "read")
            read_src = system.port(core, spec.src_value, "read")
            read_incident = system.port(core, spec.incident, "read")
            read_dst = system.port(core, spec.dst_value, "read")
            for element in order:
                read_src_offset(element)
                read_src_offset(element + 1)
                read_src(element)
                start, end = offsets[element], offsets[element + 1]
                for position in range(start, end):
                    dst = indices[position]
                    read_incident(position)
                    read_dst(dst)
                    if dst_degree:
                        read_dst_offset(dst)
                        read_dst_offset(dst + 1)
                    modified = apply_fn(element, dst)
                    charge(core, per_tuple_core)
                    if modified:
                        write_dst(dst)
                        if not activated_bitmap[dst]:
                            activated_bitmap[dst] = True
                            if not dense:
                                write_bitmap(dst)
                                charge(core, frontier_cycles)
            return

        # CP stages run tuple-by-tuple, a bounded FIFO ahead of the core,
        # so each prefetched line is consumed (and written) while still
        # resident — model that by interleaving the CP loads with the
        # core's Apply at edge granularity.  The CP counters accumulate in
        # locals (ints, so folding is exact) and land on ``cp_cost`` once;
        # the uniform per-tuple core charges accumulate as a run and are
        # flushed through ``charge_compute_run`` before any *different*
        # compute charge, preserving the accumulator's addition order.
        charge_run = system.charge_compute_run
        fetch_offset = system.port(core, spec.src_offset, "engine")
        fetch_src = system.port(core, spec.src_value, "engine")
        fetch_incident = system.port(core, spec.incident, "engine")
        fetch_dst = system.port(core, spec.dst_value, "engine")

        beats = 0
        requests = 0
        tuples = 0
        charged = 0  # tuples whose core charge has been flushed
        overlapped = 0
        for element in order:
            overlapped += fetch_offset(element) + fetch_offset(element + 1)
            overlapped += fetch_src(element)
            start, end = offsets[element], offsets[element + 1]
            # CP counters per element: 1 beat + 3 requests for acquisition,
            # then 1 beat + 2 requests per tuple — hoisted out of the tuple
            # loop (int sums, exact).  ``tuple_base`` recovers the running
            # tuple count mid-element for the charge-flush watermark.
            n = end - start
            beats += 1 + n
            requests += 3 + 2 * n
            tuple_base = tuples
            tuples += n
            for position in range(start, end):
                dst = indices[position]
                overlapped += fetch_incident(position)
                overlapped += fetch_dst(dst)
                if dst_degree:
                    read_dst_offset(dst)
                    read_dst_offset(dst + 1)
                if apply_fn(element, dst):
                    write_dst(dst)
                    if not activated_bitmap[dst]:
                        activated_bitmap[dst] = True
                        if not dense:
                            done = tuple_base + (position - start + 1)
                            charge_run(core, per_tuple_core, done - charged)
                            charged = done
                            write_bitmap(dst)
                            charge(core, frontier_cycles)
        charge_run(core, per_tuple_core, tuples - charged)
        cp_cost.beats += beats
        cp_cost.requests += requests
        cp_cost.tuples += tuples
        cp_cost.overlapped_latency += overlapped
