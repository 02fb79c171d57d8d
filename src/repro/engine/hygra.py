"""The Hygra baseline: index-ordered synchronous hypergraph processing.

Reimplements the execution behaviour of Hygra (Shun, PPoPP'20) as the paper
uses it: each phase iterates its active elements in ascending index order
(Algorithm 1's ``VertexPro`` / ``HyperedgePro``), streaming the CSR and
issuing demand accesses from the general-purpose core.

``process_elements_demand`` is the one tuple loop on the demand channel:
Hygra, Hygra-interleaved, Ligra, the software GLA engines and
ChGraph-HCGonly differ only in the element order they hand it and in the
extra cycles they charge on it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.algorithms.base import AlgorithmState, HypergraphAlgorithm
from repro.core.gla import index_order_schedule
from repro.engine.base import ExecutionEngine, PhaseSpec
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk
from repro.sim.layout import ArrayId
from repro.sim.protocol import MemorySystem, Port

__all__ = ["DemandPorts", "HygraEngine", "process_elements_demand"]

#: Frontier density at which the sparse element list flips to a bitmap scan.
SPARSE_DENSE_THRESHOLD = 0.05


class DemandPorts(NamedTuple):
    """One core's demand ports over one phase's arrays."""

    src_offset: Port
    src_value: Port
    incident: Port
    dst_value: Port
    write_dst: Port
    write_bitmap: Port

    @classmethod
    def bind(cls, system: MemorySystem, spec: PhaseSpec, core: int) -> "DemandPorts":
        return cls(
            system.port(core, spec.src_offset, "read"),
            system.port(core, spec.src_value, "read"),
            system.port(core, spec.incident, "read"),
            system.port(core, spec.dst_value, "read"),
            system.port(core, spec.dst_value, "write"),
            system.port(core, ArrayId.BITMAP, "write"),
        )


def process_elements_demand(
    system: MemorySystem,
    hypergraph: Hypergraph,
    algorithm: HypergraphAlgorithm,
    spec: PhaseSpec,
    core: int,
    elements: list[int],
    activated_bitmap: np.ndarray | list[bool],
    ports: DemandPorts,
    apply_fn: Callable[[int, int], bool],
    extra_element_cycles: float = 0.0,
    extra_tuple_cycles: float = 0.0,
) -> None:
    """Process scheduled elements with all accesses on the core's demand path.

    Per element: the two offset reads and one source-value read; per
    incident edge: the incident-id read, the destination-value read, the
    apply compute, and on modification the destination-value write plus the
    next-frontier bitmap write (the frontier-membership *reads* are the
    traversal engine's job — dense scans or sparse lists — and are charged
    by the caller).  The ``extra_*`` cycles let the software GLA engine
    charge its chain-queue indirection and tuple packing, and ChGraph's
    HCG-only ablation its chain-FIFO pop, on the same path.  ``ports`` are
    ``core``'s bound demand ports for the phase (:meth:`DemandPorts.bind`);
    an element's offsets pair is two reads of one port.

    ``apply_fn`` is the phase's bound ``algorithm.phase_apply(...)``
    closure, taken once per *phase* by the caller (never per chunk: the
    algorithm may hand out a mirror it reconciles in ``end_phase``).
    ``activated_bitmap`` is the activated frontier's bitmap or a list
    mirror of it that the caller flushes back.
    """
    config = system.config
    csr = hypergraph.side(spec.src_side)
    offsets = csr.offsets_list()
    indices = csr.indices_list()
    dense = algorithm.dense_frontier
    apply_cycles = config.apply_cycles * algorithm.apply_cost_factor
    frontier_cycles = config.frontier_op_cycles
    read_src_offset, read_src, read_incident, read_dst, write_dst, write_bitmap = ports
    charge = system.charge_compute
    charge_run = system.charge_compute_run
    tuple_cycles = apply_cycles + extra_tuple_cycles

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
        for chunk in chunks:
            charge_frontier_traversal(system, chunk.core, chunk, frontier, algorithm)
            process_elements_demand(
                system,
                hypergraph,
                algorithm,
                spec,
                chunk.core,
                index_order_schedule(frontier, chunk),
                activated.bitmap,
                DemandPorts.bind(system, spec, chunk.core),
                apply_fn,
            )
