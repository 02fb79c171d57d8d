"""The Hygra baseline: index-ordered synchronous hypergraph processing.

Reimplements the execution behaviour of Hygra (Shun, PPoPP'20) as the paper
uses it: each phase iterates its active elements in ascending index order
(Algorithm 1's ``VertexPro`` / ``HyperedgePro``), streaming the CSR and
issuing demand accesses from the general-purpose core.

The demand-path element processor ``process_elements_demand`` is shared with
the software GLA engine, which differs only in schedule order.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.algorithms.base import (
    PHASE_HYPEREDGE,
    AlgorithmState,
    HypergraphAlgorithm,
)
from repro.core.gla import index_order_schedule
from repro.engine.base import ExecutionEngine, PhaseSpec
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk
from repro.sim.layout import ArrayId
from repro.sim.protocol import MemorySystem, Port

__all__ = ["DemandPorts", "HygraEngine", "process_elements_demand"]


class DemandPorts(NamedTuple):
    """One core's demand ports over one phase's arrays."""

    src_offset: Port
    src_value: Port
    incident: Port
    dst_offset: Port
    dst_value: Port
    write_dst: Port
    write_bitmap: Port

    @classmethod
    def bind(cls, system: MemorySystem, spec: PhaseSpec, core: int) -> "DemandPorts":
        return cls(
            system.port(core, spec.src_offset, "read"),
            system.port(core, spec.src_value, "read"),
            system.port(core, spec.incident, "read"),
            system.port(core, spec.dst_offset, "read"),
            system.port(core, spec.dst_value, "read"),
            system.port(core, spec.dst_value, "write"),
            system.port(core, ArrayId.BITMAP, "write"),
        )


def process_elements_demand(
    system: MemorySystem,
    hypergraph: Hypergraph,
    algorithm: HypergraphAlgorithm,
    state: AlgorithmState,
    spec: PhaseSpec,
    core: int,
    elements: list[int],
    activated: Frontier,
    ports: DemandPorts,
    extra_element_cycles: float = 0.0,
    extra_tuple_cycles: float = 0.0,
    apply_fn=None,
) -> None:
    """Process scheduled elements with all accesses on the core's demand path.

    Per element: the two offset reads and one source-value read; per
    incident edge: the incident-id read, optional destination-degree reads,
    the destination-value read, the apply compute, and on modification the
    destination-value write plus the next-frontier bitmap write (the
    frontier-membership *reads* are the traversal engine's job — dense scans
    or sparse lists — and are charged by the caller).  The ``extra_*``
    cycles let the software GLA engine charge its chain-queue indirection
    and tuple-packing overhead on the same path.  ``ports`` are ``core``'s
    bound demand ports for the phase (:meth:`DemandPorts.bind`); an
    element's offsets pair is two reads of one port.

    ``apply_fn`` is the phase's bound ``apply(src, dst)`` closure.  Engines
    that call this once per phase should pass ``algorithm.phase_apply(...)``
    themselves (the hook must run once per *phase*, not per chunk); when
    omitted, the update methods are bound directly — always safe, never
    mirror-backed.
    """
    config = system.config
    csr = hypergraph.side(spec.src_side)
    offsets = csr.offsets_list()
    indices = csr.indices_list()
    if apply_fn is None:
        fn = (
            algorithm.apply_hf
            if spec.phase == PHASE_HYPEREDGE
            else algorithm.apply_vf
        )

        def apply_fn(src, dst, _fn=fn):
            return _fn(state, hypergraph, src, dst)

    dense = algorithm.dense_frontier
    dst_degree = algorithm.reads_dst_degree
    apply_cycles = config.apply_cycles * algorithm.apply_cost_factor
    frontier_cycles = config.frontier_op_cycles
    (
        read_src_offset,
        read_src,
        read_incident,
        read_dst_offset,
        read_dst,
        write_dst,
        write_bitmap,
    ) = ports
    charge = system.charge_compute
    charge_run = system.charge_compute_run
    tuple_cycles = apply_cycles + extra_tuple_cycles
    activated_bitmap = activated.bitmap

    # The uniform per-tuple charges accumulate as a run, flushed through
    # ``charge_compute_run`` before any *different* compute charge (the
    # demand ports charge the memory accumulator, not this one), so the
    # compute accumulator sees the same additions in the same order.
    tuples = 0  # tuples processed, counted an element at a time
    charged = 0  # tuples whose charge has been flushed
    for element in elements:
        if extra_element_cycles:
            charge_run(core, tuple_cycles, tuples - charged)
            charged = tuples
            charge(core, extra_element_cycles)
        read_src_offset(element)
        read_src_offset(element + 1)
        read_src(element)
        start, end = offsets[element], offsets[element + 1]
        # ``tuple_base + position + 1`` counts the tuples done mid-element.
        tuple_base = tuples - start
        tuples += end - start
        for position in range(start, end):
            read_incident(position)
            dst = indices[position]
            if dst_degree:
                read_dst_offset(dst)
                read_dst_offset(dst + 1)
            read_dst(dst)
            if apply_fn(element, dst):
                write_dst(dst)
                if not activated_bitmap[dst]:
                    activated_bitmap[dst] = True
                    if not dense:
                        write_bitmap(dst)
                        done = tuple_base + position + 1
                        charge_run(core, tuple_cycles, done - charged)
                        charged = done
                        charge(core, frontier_cycles)
    charge_run(core, tuple_cycles, tuples - charged)


def charge_frontier_traversal(
    system: MemorySystem,
    core: int,
    chunk: Chunk,
    frontier: Frontier,
    algorithm: HypergraphAlgorithm,
    threshold: float = 0.05,
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
    if frontier.density() >= threshold:
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

    #: Frontier density at which the sparse list flips to a bitmap scan.
    sparse_dense_threshold = 0.05

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
        for chunk in chunks:
            charge_frontier_traversal(
                system, chunk.core, chunk, frontier, algorithm,
                self.sparse_dense_threshold,
            )
            elements = index_order_schedule(frontier, chunk)
            process_elements_demand(
                system,
                hypergraph,
                algorithm,
                state,
                spec,
                chunk.core,
                elements,
                activated,
                DemandPorts.bind(system, spec, chunk.core),
                apply_fn=apply_fn,
            )
