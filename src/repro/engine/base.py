"""Shared engine scaffolding: the Algorithm 1 / Algorithm 2 iteration loop.

Every engine runs the same synchronous loop — hyperedge computation (active
vertices push HF) then vertex computation (active hyperedges push VF), with
a barrier after each phase — and differs only in how a phase schedules and
charges its work.  :meth:`ExecutionEngine.run` binds each phase's inputs
once into a :class:`Phase`, the only argument of the :meth:`_run_phase`
that subclasses implement.

:func:`process_elements` is the one push tuple loop; every engine but the
pull ablation runs it, with its loads on the core's demand channel (Hygra,
GLA) or on the decoupled engine's (ChGraph, HATS-V, the event prefetcher).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import NamedTuple

from repro.algorithms.base import (
    PHASE_HYPEREDGE,
    PHASE_VERTEX,
    AlgorithmState,
    HypergraphAlgorithm,
    Update,
)
from repro.chgraph.prefetcher import CpCost
from repro.engine.result import RunResult
from repro.errors import EngineError
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk, contiguous_chunks
from repro.sim.layout import ArrayId
from repro.sim.null import NullSystem
from repro.sim.observe import InstrumentedSystem
from repro.sim.protocol import (
    ITERATION_BEGIN,
    ITERATION_END,
    PHASE_BEGIN,
    PHASE_END,
    EngineEvent,
    MemorySystem,
    Port,
)

__all__ = [
    "ExecutionEngine",
    "Phase",
    "PhasePorts",
    "PhaseSpec",
    "PHASE_SPECS",
    "dram_floor",
    "process_elements",
]

#: Hard cap on engine iterations, guarding against a non-terminating
#: algorithm implementation (each paper workload converges well below this).
MAX_ENGINE_ITERATIONS = 1_000_000


@dataclasses.dataclass(frozen=True)
class PhaseSpec:
    """Which arrays a phase touches.

    During *hyperedge computation* the scheduled (source) side is vertices:
    the engine walks ``vertex_offset`` / ``incident_hyperedge`` and updates
    ``hyperedge_value``.  Vertex computation is the mirror image.
    """

    phase: str
    src_side: str  # CSR side scheduled: "vertex" or "hyperedge"
    src_offset: ArrayId
    src_value: ArrayId
    incident: ArrayId
    dst_offset: ArrayId
    dst_value: ArrayId


PHASE_SPECS: dict[str, PhaseSpec] = {
    PHASE_HYPEREDGE: PhaseSpec(
        phase=PHASE_HYPEREDGE,
        src_side="vertex",
        src_offset=ArrayId.VERTEX_OFFSET,
        src_value=ArrayId.VERTEX_VALUE,
        incident=ArrayId.INCIDENT_HYPEREDGE,
        dst_offset=ArrayId.HYPEREDGE_OFFSET,
        dst_value=ArrayId.HYPEREDGE_VALUE,
    ),
    PHASE_VERTEX: PhaseSpec(
        phase=PHASE_VERTEX,
        src_side="hyperedge",
        src_offset=ArrayId.HYPEREDGE_OFFSET,
        src_value=ArrayId.HYPEREDGE_VALUE,
        incident=ArrayId.INCIDENT_VERTEX,
        dst_offset=ArrayId.VERTEX_OFFSET,
        dst_value=ArrayId.VERTEX_VALUE,
    ),
}


def dram_floor(system: MemorySystem, lines: int) -> float:
    """Cycles one core's decoupled engine needs to fetch ``lines`` DRAM lines.

    The engine cannot outrun its core's share of the peak DRAM bandwidth,
    so its busy time for a chunk is at least this; ``lines`` is the growth
    of ``system.dram_accesses()`` over the chunk.
    """
    config = system.config
    return lines / (config.peak_dram_lines_per_cycle / config.num_cores)


@dataclasses.dataclass(frozen=True)
class Phase:
    """One phase's inputs, bound once by :meth:`ExecutionEngine.run`.

    Algorithms 1 and 2 give every phase the same inputs: the active
    ``frontier`` of the scheduled side, its per-core ``chunks``, the HF/VF
    update and the next-frontier bitmap.  ``apply`` is the algorithm's
    :meth:`~repro.algorithms.base.HypergraphAlgorithm.phase_apply` closure
    over the state's list mirrors; ``activated`` is a plain-list mirror of
    the activated frontier's bitmap, because numpy bool indexing costs ~3x
    a list index in the tuple loop.  ``run`` copies both kinds of mirror
    back after :meth:`ExecutionEngine._run_phase` returns.
    """

    system: MemorySystem
    hypergraph: Hypergraph
    algorithm: HypergraphAlgorithm
    spec: PhaseSpec
    frontier: Frontier
    chunks: list[Chunk]
    activated: list[bool]
    apply: Update


class PhasePorts(NamedTuple):
    """One core's ports over one phase's arrays.

    The four loads share one channel (the core's ``read`` or the decoupled
    ``engine``); the two writes are always the core's demand writes.
    """

    src_offset: Port
    src_value: Port
    incident: Port
    dst_value: Port
    write_dst: Port
    write_bitmap: Port

    @classmethod
    def bind(cls, phase: Phase, core: int, channel: str) -> "PhasePorts":
        system, spec = phase.system, phase.spec
        return cls(
            system.port(core, spec.src_offset, channel),
            system.port(core, spec.src_value, channel),
            system.port(core, spec.incident, channel),
            system.port(core, spec.dst_value, channel),
            system.port(core, spec.dst_value, "write"),
            system.port(core, ArrayId.BITMAP, "write"),
        )


def process_elements(
    phase: Phase,
    core: int,
    elements: list[int],
    ports: PhasePorts,
    extra_element_cycles: float = 0.0,
    extra_tuple_cycles: float = 0.0,
    frontier_cycles: float | None = None,
) -> CpCost:
    """Push each scheduled element along its incident edges.

    Per element: the two offset loads and the source-value load; per
    incident edge: the incident-id and destination-value loads, the Apply
    compute, and on modification the destination-value write plus, on a
    sparse frontier's first activation, the next-frontier bitmap write and
    ``frontier_cycles`` (default ``config.frontier_op_cycles``) of
    bookkeeping.  Finding the active elements is the caller's charge.  The
    core pays Apply plus ``extra_tuple_cycles`` per tuple and
    ``extra_element_cycles`` per element (software GLA's chain-queue
    indirection and packing, ChGraph's chain-FIFO pop).

    With ``ports`` (:meth:`PhasePorts.bind`) on the engine channel, a
    decoupled engine issues the loads a bounded FIFO ahead of Apply, so
    each prefetched line is consumed while still resident.  The returned
    :class:`~repro.chgraph.prefetcher.CpCost` is that engine's count: a
    beat per element and per tuple, and the summed load latency; callers
    on the demand channel ignore it.

    Updates go through ``phase.apply`` and first activations into the
    ``phase.activated`` mirror, both bound once per phase by
    :meth:`ExecutionEngine.run`.
    """
    system, algorithm = phase.system, phase.algorithm
    config = system.config
    csr = phase.hypergraph.side(phase.spec.src_side)
    offsets = csr.offsets_list()
    indices = csr.indices_list()
    dense = algorithm.dense_frontier
    apply_fn = phase.apply
    activated = phase.activated
    if frontier_cycles is None:
        frontier_cycles = config.frontier_op_cycles
    tuple_cycles = (
        config.apply_cycles * algorithm.apply_cost_factor + extra_tuple_cycles
    )
    load_offset, load_src, load_incident, load_dst, write_dst, write_bitmap = ports
    charge = system.charge_compute
    charge_run = system.charge_compute_run

    # Load latencies sum in a local (ints, so folding is exact), one
    # addition per element and one per tuple.  The uniform per-tuple core
    # charges accumulate as a run, flushed through ``charge_compute_run``
    # before any *different* compute charge, so the compute accumulator
    # sees the same additions in the same order.
    loaded = 0
    tuples = 0  # tuples processed, counted an element at a time
    charged = 0  # tuples whose charge has been flushed
    for element in elements:
        if extra_element_cycles:
            charge_run(core, tuple_cycles, tuples - charged)
            charged = tuples
            charge(core, extra_element_cycles)
        loaded += load_offset(element) + load_offset(element + 1) + load_src(element)
        start, end = offsets[element], offsets[element + 1]
        # ``tuple_base + position + 1`` counts the tuples done mid-element.
        tuple_base = tuples - start
        tuples += end - start
        for position in range(start, end):
            dst = indices[position]
            loaded += load_incident(position) + load_dst(dst)
            if apply_fn(element, dst):
                write_dst(dst)
                if not activated[dst]:
                    activated[dst] = True
                    if not dense:
                        write_bitmap(dst)
                        done = tuple_base + position + 1
                        charge_run(core, tuple_cycles, done - charged)
                        charged = done
                        charge(core, frontier_cycles)
    charge_run(core, tuple_cycles, tuples - charged)
    return CpCost(beats=len(elements) + tuples, overlapped_latency=loaded)


class ExecutionEngine(abc.ABC):
    """Base class for Hygra, software GLA, ChGraph and the other baselines."""

    name: str = "base"

    def run(
        self,
        algorithm: HypergraphAlgorithm,
        hypergraph: Hypergraph,
        system: MemorySystem | None = None,
    ) -> RunResult:
        """Execute ``algorithm`` to convergence on ``hypergraph``.

        ``system`` is any :class:`~repro.sim.protocol.MemorySystem` —
        typically a :class:`~repro.sim.system.SimulatedSystem` (full
        cache/timing simulation) or ``None`` for a pure semantic run.
        """
        if system is None:
            system = NullSystem()
        num_cores = system.config.num_cores
        chunks = {
            # Chunks of the *source* side each phase schedules.
            PHASE_HYPEREDGE: contiguous_chunks(hypergraph.num_vertices, num_cores),
            PHASE_VERTEX: contiguous_chunks(hypergraph.num_hyperedges, num_cores),
        }
        self._prepare(hypergraph, system)
        emit = system.on_event

        state = algorithm.init_state(hypergraph)
        iteration = 0
        while True:
            emit(EngineEvent(ITERATION_BEGIN, iteration))
            for phase in (PHASE_HYPEREDGE, PHASE_VERTEX):
                hyperedge_phase = phase == PHASE_HYPEREDGE
                algorithm.begin_phase(state, hypergraph, phase)
                frontier = state.frontier_v if hyperedge_phase else state.frontier_e
                emit(
                    EngineEvent(
                        PHASE_BEGIN,
                        iteration,
                        phase=phase,
                        frontier_size=len(frontier),
                        frontier_density=frontier.density(),
                        frontier=frontier,
                    )
                )
                activated = Frontier(
                    hypergraph.num_hyperedges
                    if hyperedge_phase
                    else hypergraph.num_vertices
                )
                mirror = activated.bitmap.tolist()
                self._run_phase(
                    Phase(
                        system,
                        hypergraph,
                        algorithm,
                        PHASE_SPECS[phase],
                        frontier,
                        chunks[phase],
                        mirror,
                        algorithm.phase_apply(state, hypergraph, phase),
                    )
                )
                activated.bitmap[:] = mirror
                state.flush()
                activated = algorithm.end_phase(state, hypergraph, phase, activated)
                if hyperedge_phase:
                    state.frontier_e = activated
                else:
                    state.frontier_v = activated
                system.barrier()
                emit(EngineEvent(PHASE_END, iteration, phase=phase))
            emit(EngineEvent(ITERATION_END, iteration))

            if algorithm.finished(state, hypergraph, iteration) or (
                algorithm.max_iterations is not None
                and iteration + 1 >= algorithm.max_iterations
            ):
                break
            iteration += 1
            if iteration >= MAX_ENGINE_ITERATIONS:
                raise EngineError(
                    f"{algorithm.name} exceeded {MAX_ENGINE_ITERATIONS} iterations"
                )

        return self._build_result(algorithm, hypergraph, system, state, iteration + 1)

    # -- subclass hooks ------------------------------------------------------

    def _prepare(self, hypergraph: Hypergraph, system: MemorySystem) -> None:
        """Per-run setup (GLA engines attach per-chunk OAGs here)."""

    @abc.abstractmethod
    def _run_phase(self, phase: Phase) -> None:
        """Process one phase: visit active elements, apply updates, charge."""

    # -- result assembly -------------------------------------------------------

    def _chain_stats(self) -> dict[str, float]:
        """Chain statistics accumulated during the run (GLA engines)."""
        return {}

    def _fifo_stats(self) -> dict[str, float]:
        """Accelerator queue-occupancy statistics (ChGraph engines)."""
        return {}

    def _build_result(
        self,
        algorithm: HypergraphAlgorithm,
        hypergraph: Hypergraph,
        system: MemorySystem,
        state: AlgorithmState,
        iterations: int,
    ) -> RunResult:
        breakdown = system.breakdown
        telemetry = None
        if isinstance(system, InstrumentedSystem):
            telemetry = system.telemetry(
                chain_stats=self._chain_stats(), fifo=self._fifo_stats()
            )
        return RunResult(
            engine=self.name,
            algorithm=algorithm.name,
            dataset=hypergraph.name,
            result=algorithm.result(state, hypergraph).copy(),
            vertex_values=state.vertex_values.copy(),
            hyperedge_values=state.hyperedge_values.copy(),
            iterations=iterations,
            cycles=system.total_cycles,
            compute_cycles=breakdown.compute_cycles,
            memory_stall_cycles=breakdown.memory_stall_cycles,
            dram_accesses=system.dram_accesses(),
            dram_by_array=system.dram_breakdown(),
            dram_writebacks=system.dram_writebacks(),
            dram_writebacks_by_array=system.dram_writeback_breakdown(),
            chain_stats=self._chain_stats(),
            telemetry=telemetry,
        )
