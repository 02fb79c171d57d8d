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

from repro.core.gla import index_order_schedule
from repro.engine.base import ExecutionEngine, Phase, PhasePorts, process_elements
from repro.hypergraph.partition import Chunk
from repro.sim.layout import ArrayId

__all__ = ["HygraEngine"]

#: Frontier density at which the sparse element list flips to a bitmap scan.
SPARSE_DENSE_THRESHOLD = 0.05


def charge_frontier_traversal(phase: Phase, chunk: Chunk) -> None:
    """Charge the cost of *finding* a chunk's active elements.

    Hygra switches representations like Ligra: a dense frontier is read by
    scanning the bitmap sequentially over the chunk's id range (cheap — 64
    flags per line); a sparse frontier is an explicit element list whose
    sequential read is negligible next to the per-element CSR work.
    All-active algorithms (PR) skip the bitmap entirely (§VI-C).
    """
    if phase.algorithm.dense_frontier:
        return
    if phase.frontier.density() >= SPARSE_DENSE_THRESHOLD:
        system = phase.system
        config = system.config
        stride = config.line_size  # one BITMAP probe per line of flags
        read_bitmap = system.port(chunk.core, ArrayId.BITMAP, "read")
        for index in range(chunk.first, chunk.last, stride):
            read_bitmap(index)
        system.charge_compute(
            chunk.core, len(chunk) * config.frontier_op_cycles / 8
        )


class HygraEngine(ExecutionEngine):
    """Index-ordered scheduling — the paper's software baseline."""

    name = "Hygra"

    def _run_phase(self, phase: Phase) -> None:
        for chunk in phase.chunks:
            charge_frontier_traversal(phase, chunk)
            process_elements(
                phase,
                chunk.core,
                index_order_schedule(phase.frontier, chunk),
                PhasePorts.bind(phase, chunk.core, "read"),
            )
