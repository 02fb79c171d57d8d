"""Pull-direction (dense-gather) execution — Ligra's ``edgeMapDense``.

The push engines iterate *active sources* and scatter updates into
destinations; the pull direction iterates *all destinations* and gathers
from their active sources.  Hygra inherits this direction choice from
Ligra: pulling wins when the frontier is dense (no scatter write-sharing,
destination values written once, sequentially) and loses when sparse (every
destination probes every incident source's activity bit).

This engine always pulls — it exists to study the direction trade-off
(the ``ablation_pull`` figure), not to replace the push baseline the
paper models.  Results are identical to push by construction: the same
``apply`` calls run, merely discovered from the other side.
"""

from __future__ import annotations

from repro.engine.base import ExecutionEngine, Phase
from repro.hypergraph.partition import contiguous_chunks
from repro.sim.layout import ArrayId

__all__ = ["PullHygraEngine"]


class PullHygraEngine(ExecutionEngine):
    """Index-ordered dense-gather execution over the destination side."""

    name = "Hygra-pull"

    def _run_phase(self, phase: Phase) -> None:
        system, algorithm, spec = phase.system, phase.algorithm, phase.spec
        config = system.config
        # Pull iterates the DESTINATION side: its CSR is the mirror of the
        # phase's source CSR (hyperedges' member lists during hyperedge
        # computation, where sources are vertices).
        dst_side = "hyperedge" if spec.src_side == "vertex" else "vertex"
        dst_csr = phase.hypergraph.side(dst_side)
        offsets = dst_csr.offsets_list()
        indices = dst_csr.indices_list()
        apply_fn = phase.apply
        # The positions walked are the destination side's incidence list
        # (e.g. incident_vertex while gathering into hyperedges), the mirror
        # of the push engines' array.
        gather_incident = (
            ArrayId.INCIDENT_VERTEX
            if spec.incident == ArrayId.INCIDENT_HYPEREDGE
            else ArrayId.INCIDENT_HYPEREDGE
        )
        dense = algorithm.dense_frontier
        apply_cycles = config.apply_cycles * algorithm.apply_cost_factor
        frontier_bitmap = phase.frontier.bitmap
        activated = phase.activated
        charge = system.charge_compute

        # Destinations are chunked over their own universe.
        dst_chunks = contiguous_chunks(dst_csr.num_rows, config.num_cores)
        for chunk in dst_chunks:
            core = chunk.core
            read_dst_offset = system.port(core, spec.dst_offset, "read")
            read_dst = system.port(core, spec.dst_value, "read")
            read_incident = system.port(core, gather_incident, "read")
            read_bitmap = system.port(core, ArrayId.BITMAP, "read")
            read_src = system.port(core, spec.src_value, "read")
            write_dst = system.port(core, spec.dst_value, "write")
            write_bitmap = system.port(core, ArrayId.BITMAP, "write")
            for dst in chunk.ids():
                read_dst_offset(dst)
                read_dst_offset(dst + 1)
                read_dst(dst)
                start, end = offsets[dst], offsets[dst + 1]
                touched = False
                for position in range(start, end):
                    src = indices[position]
                    read_incident(position)
                    if not dense:
                        # The pull tax: probe every incident source's bit.
                        read_bitmap(src)
                        charge(core, config.frontier_op_cycles)
                        if not frontier_bitmap[src]:
                            continue
                    read_src(src)
                    modified = apply_fn(src, dst)
                    charge(core, apply_cycles)
                    touched = touched or modified
                if touched:
                    # One sequential write per destination (pull's payoff).
                    write_dst(dst)
                    if not activated[dst]:
                        activated[dst] = True
                        if not dense:
                            write_bitmap(dst)
