"""Event-driven programmable prefetcher baseline (§VI-H, Fig 23).

Models the event-triggered prefetcher of Ainsworth & Jones (ASPLOS'18): the
traversal order stays Hygra's *index order*, but the prefetcher chases the
indirection ``incident[i] -> value[incident[i]]`` ahead of the core, hiding
miss latency.  Crucially it does **not** change which lines are fetched —
the paper's point is that such prefetchers "hide access latency for
saturating memory bandwidth" whereas ChGraph "utilizes bandwidth fully
without prefetching too much noisy data by changing the scheduling order".
Consequently this engine's DRAM traffic matches Hygra's while its stall
time approaches the bandwidth floor.
"""

from __future__ import annotations

from repro.algorithms.base import AlgorithmState, HypergraphAlgorithm
from repro.core.gla import index_order_schedule
from repro.engine.base import ExecutionEngine, PhaseSpec, dram_floor
from repro.engine.hygra import charge_frontier_traversal
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk
from repro.sim.layout import ArrayId
from repro.sim.protocol import MemorySystem

__all__ = ["EventPrefetcherEngine"]


class EventPrefetcherEngine(ExecutionEngine):
    """Index-ordered execution with an indirect-access prefetch engine."""

    name = "EventPrefetcher"

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
        config = system.config
        csr = hypergraph.side(spec.src_side)
        offsets = csr.offsets_list()
        indices = csr.indices_list()
        apply_fn = algorithm.phase_apply(state, hypergraph, spec.phase)
        dense = algorithm.dense_frontier
        activated_bitmap = activated.bitmap

        for chunk in chunks:
            core = chunk.core
            charge_frontier_traversal(system, core, chunk, frontier, algorithm)
            fetch_offset = system.port(core, spec.src_offset, "engine")
            fetch_src = system.port(core, spec.src_value, "engine")
            fetch_incident = system.port(core, spec.incident, "engine")
            fetch_dst = system.port(core, spec.dst_value, "engine")
            write_dst = system.port(core, spec.dst_value, "write")
            write_bitmap = system.port(core, ArrayId.BITMAP, "write")
            dram_before = system.dram_accesses()
            engine_latency = 0.0
            beats = 0
            for element in index_order_schedule(frontier, chunk):
                # The prefetch engine chases the per-element indirections.
                beats += 1
                engine_latency += fetch_offset(element) + fetch_offset(element + 1)
                engine_latency += fetch_src(element)
                start, end = offsets[element], offsets[element + 1]
                for position in range(start, end):
                    dst = indices[position]
                    beats += 1
                    engine_latency += fetch_incident(position)
                    engine_latency += fetch_dst(dst)
                    modified = apply_fn(element, dst)
                    system.charge_compute(
                        core, config.apply_cycles * algorithm.apply_cost_factor
                    )
                    if modified:
                        write_dst(dst)
                        if not activated_bitmap[dst]:
                            activated_bitmap[dst] = True
                            if not dense:
                                write_bitmap(dst)
            engine_cycles = (
                beats * config.hw_stage_cycles
                + engine_latency / config.engine_mlp
            )
            engine_cycles = max(
                engine_cycles,
                dram_floor(system, system.dram_accesses() - dram_before),
            )
            system.charge_engine(core, engine_cycles)
