"""The typed engine↔simulator boundary: the :class:`MemorySystem` protocol.

Every execution engine talks to the simulated platform exclusively through
this interface: :meth:`MemorySystem.port` binds one access path, compute
and engine cycle charges feed the phase timer, the phase barrier closes a
phase, and result accessors serve the harness.  A *port* is a
``Callable[[int], int]`` bound once to one (core, array, channel): calling
it with an element index performs that access and returns its latency in
cycles.  The four :data:`CHANNELS` are the core's demand ``read`` and
``write``, the dependency-chained ``serial`` read, and ``engine`` — an
access issued by a decoupled access engine beside the core (ChGraph's
HCG/CP, the event prefetcher).  Ports are the *only* way an engine touches
memory, so a system that wraps ports (the observing middleware) sees every
access of every engine.

Declaring the protocol ``runtime_checkable`` makes the boundary a real
contract: :class:`~repro.sim.system.SimulatedSystem`,
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
    "CHANNELS",
    "ITERATION_BEGIN",
    "ITERATION_END",
    "PHASE_BEGIN",
    "PHASE_END",
    "EngineEvent",
    "MemorySystem",
    "Port",
]

#: The access channels a port binds (:meth:`MemorySystem.port`): demand
#: reads and writes (charged to the core's memory stalls), dependency-
#: chained reads (charged as serial compute) and decoupled-engine accesses
#: (charged nothing; the engine's busy time goes through ``charge_engine``).
CHANNELS = ("read", "write", "serial", "engine")

#: A bound access path: ``port(index) -> latency`` in cycles.
Port = Callable[[int], int]

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

    ``port`` binds an access path and the ``charge_*`` methods charge
    cycles; the properties and ``dram_*`` accessors are how results are
    read back.  ``hierarchy`` is the raw cache hierarchy, exposed for
    inspection (the invariant checker, counters) and ``None`` on systems
    without one, e.g. :class:`~repro.sim.null.NullSystem`; engines never
    touch it.
    """

    # -- identity ------------------------------------------------------------

    @property
    def config(self) -> SystemConfig: ...

    @property
    def hierarchy(self) -> "MemoryHierarchy | None": ...

    # -- accesses ------------------------------------------------------------

    # Bind ``port(index) -> latency`` for one core, array and channel (one
    # of CHANNELS).  Engines bind their ports once per chunk; every call is
    # one element access.
    def port(self, core: int, array: ArrayId, channel: str) -> Port: ...

    # -- cycle charges -------------------------------------------------------

    def charge_compute(self, core: int, cycles: float) -> None: ...

    # A run of ``count`` identical compute charges in one call.  Contract:
    # the accumulators receive the same sequence of float additions as
    # ``count`` separate ``charge_compute`` calls (per-tuple cycle costs
    # are non-integer floats, so the sum must not be regrouped).
    def charge_compute_run(self, core: int, cycles: float, count: int) -> None: ...

    # Busy cycles of the core's decoupled access engine, which overlap the
    # core's own time at the barrier.
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
