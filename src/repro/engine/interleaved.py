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

from repro.algorithms.base import AlgorithmState, HypergraphAlgorithm
from repro.core.gla import index_order_schedule
from repro.engine.base import PhasePorts, PhaseSpec, process_elements
from repro.engine.hygra import HygraEngine, charge_frontier_traversal
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk
from repro.sim.protocol import MemorySystem

__all__ = ["InterleavedHygraEngine"]


class InterleavedHygraEngine(HygraEngine):
    """Hygra with per-element round-robin interleaving across cores."""

    name = "Hygra-interleaved"

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
        apply_fn = algorithm.phase_apply(state, hypergraph, spec.phase)
        schedules = []
        for chunk in chunks:
            charge_frontier_traversal(system, chunk.core, chunk, frontier, algorithm)
            # Ports are bound once per core per phase, not per element.
            schedules.append(
                (
                    chunk.core,
                    index_order_schedule(frontier, chunk),
                    PhasePorts.bind(system, spec, chunk.core, "read"),
                )
            )

        position = 0
        live = True
        while live:
            live = False
            for core, elements, ports in schedules:
                if position < len(elements):
                    live = True
                    process_elements(
                        system,
                        hypergraph,
                        algorithm,
                        spec,
                        core,
                        [elements[position]],
                        activated.bitmap,
                        ports,
                        apply_fn,
                    )
            position += 1
