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

from repro.core.gla import index_order_schedule
from repro.engine.base import (
    ExecutionEngine,
    Phase,
    PhasePorts,
    dram_floor,
    process_elements,
)
from repro.engine.hygra import charge_frontier_traversal

__all__ = ["EventPrefetcherEngine"]


class EventPrefetcherEngine(ExecutionEngine):
    """Index-ordered execution with an indirect-access prefetch engine."""

    name = "EventPrefetcher"

    def _run_phase(self, phase: Phase) -> None:
        system = phase.system
        config = system.config
        for chunk in phase.chunks:
            charge_frontier_traversal(phase, chunk)
            dram_before = system.dram_accesses()
            # The prefetch engine chases the per-element indirections in
            # index order; the core pays only Apply per tuple.  Unlike every
            # other push engine it is charged no frontier bookkeeping on a
            # sparse activation: an open model question, kept explicit here
            # because answering it changes the fig23 table.
            cost = process_elements(
                phase,
                chunk.core,
                index_order_schedule(phase.frontier, chunk),
                PhasePorts.bind(phase, chunk.core, "engine"),
                frontier_cycles=0.0,
            )
            engine_cycles = max(
                cost.engine_cycles(config.hw_stage_cycles, config.engine_mlp),
                dram_floor(system, system.dram_accesses() - dram_before),
            )
            system.charge_engine(chunk.core, engine_cycles)
