"""Interleaved-core execution: a fidelity check on chunk-serial simulation.

The engines simulate a phase chunk-by-chunk: core 0's whole chunk runs
through the hierarchy before core 1's begins.  Real cores run concurrently,
interleaving their access streams in the shared L3.  This engine processes
one element per core in round-robin order, which is the opposite extreme
(perfectly fair instruction-level interleaving).

The ``ablation_interleaving`` figure measures how much the choice moves
DRAM counts; the gap bounds the error the serial simplification
introduces into the shared-LLC behaviour.
"""

from __future__ import annotations

from repro.core.gla import index_order_schedule
from repro.engine.base import Phase, PhasePorts, process_elements
from repro.engine.hygra import HygraEngine, charge_frontier_traversal

__all__ = ["InterleavedHygraEngine"]


class InterleavedHygraEngine(HygraEngine):
    """Hygra with per-element round-robin interleaving across cores."""

    name = "Hygra-interleaved"

    def _run_phase(self, phase: Phase) -> None:
        schedules = []
        for chunk in phase.chunks:
            charge_frontier_traversal(phase, chunk)
            # Ports are bound once per core per phase, not per element.
            schedules.append(
                (
                    chunk.core,
                    index_order_schedule(phase.frontier, chunk),
                    PhasePorts.bind(phase, chunk.core, "read"),
                )
            )

        position = 0
        live = True
        while live:
            live = False
            for core, elements, ports in schedules:
                if position < len(elements):
                    live = True
                    process_elements(phase, core, [elements[position]], ports)
            position += 1
