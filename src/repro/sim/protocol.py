"""The typed engine↔simulator boundary: the :class:`MemorySystem` protocol.

Every execution engine talks to the simulated platform exclusively through
this charging interface — demand reads/writes, dependency-chained reads,
compute/engine cycle charges, and the phase barrier — plus the result
accessors the harness consumes.  Declaring it as a ``runtime_checkable``
:class:`typing.Protocol` makes the boundary a real contract:
:class:`~repro.sim.system.SimulatedSystem`,
:class:`~repro.sim.null.NullSystem` and the
:class:`~repro.sim.observe.InstrumentedSystem` middleware all conform, and
``tests/sim/test_protocol.py`` asserts it with ``isinstance``.

The engine loop additionally narrates its progress through
:meth:`MemorySystem.on_event` — a single hook point receiving
:class:`EngineEvent` records at iteration and phase boundaries.  The plain
systems ignore the events (a no-op method call per phase, charging
nothing), so simulation results are bit-identical whether or not anyone is
listening; the instrumented middleware fans them out to its observers.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.sim.config import SystemConfig
from repro.sim.layout import ArrayId
from repro.sim.timing import TimingBreakdown

if TYPE_CHECKING:
    from repro.hypergraph.frontier import Frontier
    from repro.sim.hierarchy import MemoryHierarchy

__all__ = [
    "ITERATION_BEGIN",
    "ITERATION_END",
    "PHASE_BEGIN",
    "PHASE_END",
    "EngineEvent",
    "MemorySystem",
]

#: Event kinds emitted by the engine loop (:class:`EngineEvent.kind`).
ITERATION_BEGIN = "iteration_begin"
ITERATION_END = "iteration_end"
PHASE_BEGIN = "phase_begin"
PHASE_END = "phase_end"


@dataclasses.dataclass(frozen=True)
class EngineEvent:
    """One iteration/phase boundary crossing in the engine loop.

    ``frontier_size``/``frontier_density`` describe the frontier *driving*
    a phase on ``PHASE_BEGIN`` and the frontier *produced* by it on
    ``PHASE_END``; they are zero on iteration events.  ``frontier`` is the
    live :class:`~repro.hypergraph.frontier.Frontier` those numbers were
    read from, when the emitting engine has one — observers such as the
    invariant checker may inspect it (read-only) but must not mutate it.
    """

    kind: str
    iteration: int
    phase: str | None = None
    frontier_size: int = 0
    frontier_density: float = 0.0
    frontier: "Frontier | None" = None


@runtime_checkable
class MemorySystem(Protocol):
    """What an execution engine may do to the platform beneath it.

    Methods charge costs (reads/writes return the access latency in
    cycles); the properties and ``dram_*`` accessors are how results are
    read back.  ``hierarchy`` is the raw cache hierarchy for engines that
    model a decoupled access engine beside the core (``None`` on systems
    without one, e.g. :class:`~repro.sim.null.NullSystem`).
    """

    # -- identity ------------------------------------------------------------

    @property
    def config(self) -> SystemConfig: ...

    @property
    def hierarchy(self) -> "MemoryHierarchy | None": ...

    # -- demand-side charging (the general-purpose core) ---------------------

    def read(self, core: int, array: ArrayId, index: int) -> int: ...

    def read_serial(self, core: int, array: ArrayId, index: int) -> int: ...

    def write(self, core: int, array: ArrayId, index: int) -> int: ...

    # Batched (line-granular) variants over ``count`` consecutive elements.
    # Contract: bit-identical to the equivalent per-element loop — see
    # ``MemoryHierarchy.access_block`` for the proof sketch.

    def read_block(self, core: int, array: ArrayId, start: int, count: int) -> int: ...

    def read_serial_block(
        self, core: int, array: ArrayId, start: int, count: int
    ) -> int: ...

    def write_block(self, core: int, array: ArrayId, start: int, count: int) -> int: ...

    def charge_compute(self, core: int, cycles: float) -> None: ...

    # A run of ``count`` identical compute charges in one call.  Contract:
    # the accumulators receive the same sequence of float additions as
    # ``count`` separate ``charge_compute`` calls (per-tuple cycle costs
    # are non-integer floats, so the sum must not be regrouped).
    def charge_compute_run(self, core: int, cycles: float, count: int) -> None: ...

    # A pre-bound per-(core, array) write closure for per-tuple hot loops.
    # Contract: each ``write_one(index)`` call is equivalent to
    # ``write(core, array, index)``.
    def demand_writer(
        self, core: int, array: ArrayId
    ) -> Callable[[int], int]: ...

    # -- engine-side charging (decoupled access engines) ---------------------
    # Engine-side accesses go through ``hierarchy.engine_access`` (the L2
    # path); only their busy cycles are charged here.

    def charge_engine(self, core: int, cycles: float) -> None: ...

    # -- phase structure -----------------------------------------------------

    def barrier(self) -> float: ...

    def on_event(self, event: EngineEvent) -> None: ...

    # -- results -------------------------------------------------------------

    @property
    def breakdown(self) -> TimingBreakdown: ...

    @property
    def total_cycles(self) -> float: ...

    def dram_accesses(self) -> int: ...

    def dram_breakdown(self) -> dict[ArrayId, int]: ...

    def dram_writebacks(self) -> int: ...

    def dram_writeback_breakdown(self) -> dict[ArrayId, int]: ...
