"""Shared engine scaffolding: the Algorithm 1 / Algorithm 2 iteration loop.

Every engine runs the same synchronous loop — hyperedge computation (active
vertices push HF) then vertex computation (active hyperedges push VF), with
a barrier after each phase — and differs only in how a phase schedules and
charges its work.  Subclasses implement :meth:`_run_phase`.
"""

from __future__ import annotations

import abc
import dataclasses

from repro.algorithms.base import (
    PHASE_HYPEREDGE,
    PHASE_VERTEX,
    AlgorithmState,
    HypergraphAlgorithm,
)
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
)

__all__ = ["ExecutionEngine", "PhaseSpec", "PHASE_SPECS", "dram_floor"]

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
        self._prepare(hypergraph, system, chunks)
        emit = system.on_event

        state = algorithm.init_state(hypergraph)
        iteration = 0
        while True:
            algorithm.begin_iteration(state, hypergraph, iteration)
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
                self._run_phase(
                    system,
                    hypergraph,
                    algorithm,
                    state,
                    PHASE_SPECS[phase],
                    frontier,
                    chunks[phase],
                    activated,
                )
                activated = algorithm.end_phase(state, hypergraph, phase, activated)
                if hyperedge_phase:
                    state.frontier_e = activated
                else:
                    state.frontier_v = activated
                system.barrier()
                emit(EngineEvent(PHASE_END, iteration, phase=phase))
            emit(EngineEvent(ITERATION_END, iteration))

            if algorithm.finished(state, hypergraph, iteration):
                break
            iteration += 1
            if (
                algorithm.max_iterations is not None
                and iteration >= algorithm.max_iterations
            ):
                break
            if iteration >= MAX_ENGINE_ITERATIONS:
                raise EngineError(
                    f"{algorithm.name} exceeded {MAX_ENGINE_ITERATIONS} iterations"
                )

        return self._build_result(algorithm, hypergraph, system, state, iteration + 1)

    # -- subclass hooks ------------------------------------------------------

    def _prepare(
        self,
        hypergraph: Hypergraph,
        system: MemorySystem,
        chunks: dict[str, list[Chunk]],
    ) -> None:
        """Per-run setup (GLA engines attach per-chunk OAGs here)."""

    @abc.abstractmethod
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
