"""The Hygra baseline: index-ordered synchronous hypergraph processing.

Reimplements the execution behaviour of Hygra (Shun, PPoPP'20) as the paper
uses it: each phase iterates its active elements in ascending index order
(Algorithm 1's ``VertexPro`` / ``HyperedgePro``), streaming the CSR and
issuing demand accesses from the general-purpose core.

Its tuple loop is the shared push loop
(:func:`~repro.engine.base.process_elements`) with the loads bound on the
core's demand channel; Hygra-interleaved, Ligra, the software GLA engines
and ChGraph-HCGonly differ from it only in the element order they hand that
loop and in the extra cycles they charge on it.
"""

from __future__ import annotations

from repro.algorithms.base import AlgorithmState, HypergraphAlgorithm
from repro.core.gla import index_order_schedule
from repro.engine.base import ExecutionEngine, PhasePorts, PhaseSpec, process_elements
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk
from repro.sim.layout import ArrayId
from repro.sim.protocol import MemorySystem

__all__ = ["HygraEngine"]

#: Frontier density at which the sparse element list flips to a bitmap scan.
SPARSE_DENSE_THRESHOLD = 0.05


def charge_frontier_traversal(
    system: MemorySystem,
    core: int,
    chunk: Chunk,
    frontier: Frontier,
    algorithm: HypergraphAlgorithm,
) -> None:
    """Charge the cost of *finding* a chunk's active elements.

    Hygra switches representations like Ligra: a dense frontier is read by
    scanning the bitmap sequentially over the chunk's id range (cheap — 64
    flags per line); a sparse frontier is an explicit element list whose
    sequential read is negligible next to the per-element CSR work.
    All-active algorithms (PR) skip the bitmap entirely (§VI-C).
    """
    if algorithm.dense_frontier:
        return
    if frontier.density() >= SPARSE_DENSE_THRESHOLD:
        config = system.config
        stride = config.line_size  # one BITMAP probe per line of flags
        read_bitmap = system.port(core, ArrayId.BITMAP, "read")
        for index in range(chunk.first, chunk.last, stride):
            read_bitmap(index)
        system.charge_compute(
            core, len(chunk) * config.frontier_op_cycles / 8
        )


class HygraEngine(ExecutionEngine):
    """Index-ordered scheduling — the paper's software baseline."""

    name = "Hygra"

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
        # A plain-list mirror of the activation bitmap, as ChGraph keeps:
        # numpy bool indexing costs ~3x a list index in the tuple loop.
        activated_bitmap = activated.bitmap.tolist()
        for chunk in chunks:
            charge_frontier_traversal(system, chunk.core, chunk, frontier, algorithm)
            process_elements(
                system,
                hypergraph,
                algorithm,
                spec,
                chunk.core,
                index_order_schedule(frontier, chunk),
                activated_bitmap,
                PhasePorts.bind(system, spec, chunk.core, "read"),
                apply_fn,
            )
        activated.bitmap[:] = activated_bitmap
