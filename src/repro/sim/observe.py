"""Observability middleware over any :class:`~repro.sim.protocol.MemorySystem`.

:class:`InstrumentedSystem` wraps a conforming system and forwards every
charging call unchanged, notifying a set of pluggable :class:`Observer`
hooks along the way.  It wraps every port it binds, demand and engine
channels alike, so observers see every access any engine makes.  Because
it conforms to the protocol itself, *no engine changes* are needed to
profile a run — construct the wrapper, pass it where a system goes, and
read the assembled :class:`~repro.sim.telemetry.RunTelemetry` afterwards.
Observation never charges cycles, so the simulated results are identical
with or without it.

Built-in observers:

- :class:`PhaseProfiler` — per-phase-kind totals: cycles, compute/engine
  cycles, raw demand latency, access counts by channel (engine accesses
  included), DRAM-by-array deltas;
- :class:`IterationTimeline` — one record per iteration: the driving
  frontier's size and density, the phase's cycles and DRAM accesses;
- :class:`TraceObserver` — appends every access, engine accesses
  included, to a :class:`~repro.sim.trace.TraceEvent` list: the one trace
  recorder.
"""

from __future__ import annotations

from repro.sim.config import SystemConfig
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId
from repro.sim.protocol import (
    PHASE_BEGIN,
    PHASE_END,
    EngineEvent,
    MemorySystem,
    Port,
)
from repro.sim.telemetry import (
    IterationProfile,
    PhaseProfile,
    PhaseSample,
    RunTelemetry,
)
from repro.sim.timing import TimingBreakdown
from repro.sim.trace import TraceEvent

__all__ = [
    "InstrumentedSystem",
    "IterationTimeline",
    "Observer",
    "PhaseProfiler",
    "TraceObserver",
    "instrument",
]


class Observer:
    """Base observer: every hook is a no-op; subclasses override a subset."""

    def on_attach(self, system: "InstrumentedSystem") -> None:
        """Called once when added to an :class:`InstrumentedSystem`."""

    def on_access(
        self, kind: str, core: int, array: ArrayId, index: int, latency: int
    ) -> None:
        """One access through a port; ``kind`` is its channel
        (read/write/serial/engine)."""

    def on_compute(self, core: int, cycles: float) -> None:
        """Compute cycles charged to a core."""

    def on_engine(self, core: int, cycles: float) -> None:
        """Busy cycles charged to a decoupled engine."""

    def on_barrier(self, elapsed: float) -> None:
        """A phase barrier completed, taking ``elapsed`` cycles."""

    def on_event(self, event: EngineEvent) -> None:
        """An iteration/phase boundary event from the engine loop."""

    def violations(self) -> list[str]:
        """Invariant violations this observer detected (none by default).

        Declared on the base class so :meth:`InstrumentedSystem.telemetry`
        can aggregate every observer's findings into
        :class:`~repro.sim.telemetry.RunTelemetry` without knowing about
        the checker types.
        """
        return []


class PhaseProfiler(Observer):
    """Aggregates where cycles and DRAM accesses go, per phase kind."""

    def __init__(self) -> None:
        self.phases: dict[str, PhaseProfile] = {}
        self._system: InstrumentedSystem | None = None
        self._current: PhaseProfile | None = None
        self._dram_before: dict[ArrayId, int] = {}
        self._writebacks_before = 0

    def on_attach(self, system: "InstrumentedSystem") -> None:
        self._system = system

    def on_access(
        self, kind: str, core: int, array: ArrayId, index: int, latency: int
    ) -> None:
        profile = self._current
        if profile is None:
            return
        profile.accesses[kind] = profile.accesses.get(kind, 0) + 1
        if kind != "engine":
            profile.memory_latency += latency

    def on_compute(self, core: int, cycles: float) -> None:
        if self._current is not None:
            self._current.compute_cycles += cycles

    def on_engine(self, core: int, cycles: float) -> None:
        if self._current is not None:
            self._current.engine_cycles += cycles

    def on_barrier(self, elapsed: float) -> None:
        if self._current is not None:
            self._current.cycles += elapsed

    def on_event(self, event: EngineEvent) -> None:
        if self._system is None or event.phase is None:
            return
        if event.kind == PHASE_BEGIN:
            profile = self.phases.setdefault(
                event.phase, PhaseProfile(phase=event.phase)
            )
            profile.activations += 1
            self._current = profile
            self._dram_before = self._system.dram_breakdown()
            self._writebacks_before = self._system.dram_writebacks()
        elif event.kind == PHASE_END and self._current is not None:
            after = self._system.dram_breakdown()
            for array, count in after.items():
                delta = count - self._dram_before.get(array, 0)
                if delta:
                    self._current.dram_by_array[array] = (
                        self._current.dram_by_array.get(array, 0) + delta
                    )
                    self._current.dram_accesses += delta
            self._current.dram_writebacks += (
                self._system.dram_writebacks() - self._writebacks_before
            )
            self._current = None


class IterationTimeline(Observer):
    """Records a per-iteration, per-phase timeline of frontier and cost."""

    def __init__(self) -> None:
        self.iterations: list[IterationProfile] = []
        self._system: InstrumentedSystem | None = None
        self._sample: PhaseSample | None = None
        self._dram_before = 0
        self._cycles = 0.0

    def on_attach(self, system: "InstrumentedSystem") -> None:
        self._system = system

    def on_barrier(self, elapsed: float) -> None:
        self._cycles += elapsed

    def on_event(self, event: EngineEvent) -> None:
        if self._system is None:
            return
        if event.kind == PHASE_BEGIN and event.phase is not None:
            if not self.iterations or (
                self.iterations[-1].iteration != event.iteration
            ):
                self.iterations.append(IterationProfile(iteration=event.iteration))
            self._sample = PhaseSample(
                phase=event.phase,
                frontier_size=event.frontier_size,
                frontier_density=event.frontier_density,
                cycles=0.0,
                dram_accesses=0,
            )
            self._dram_before = self._system.dram_accesses()
            self._cycles = 0.0
        elif event.kind == PHASE_END and self._sample is not None:
            self._sample.cycles = self._cycles
            self._sample.dram_accesses = (
                self._system.dram_accesses() - self._dram_before
            )
            self.iterations[-1].phases.append(self._sample)
            self._sample = None


class TraceObserver(Observer):
    """Collects every access made through the facade's ports."""

    def __init__(self) -> None:
        self.trace: list[TraceEvent] = []

    def on_access(
        self, kind: str, core: int, array: ArrayId, index: int, latency: int
    ) -> None:
        self.trace.append(TraceEvent(kind, core, array, index))


def instrument(
    inner: MemorySystem, observers: "list[Observer] | None" = None
) -> MemorySystem:
    """Wrap ``inner`` for observation — or don't, when nobody is listening.

    With a non-empty observer list this returns an
    :class:`InstrumentedSystem`; with an empty (or ``None``) list it
    returns ``inner`` itself, so unobserved runs pay zero middleware
    dispatch on the access hot path.  Callers that need the telemetry
    accessors should check ``isinstance(system, InstrumentedSystem)``
    (they already must: a bare system has no ``telemetry()``).
    """
    if not observers:
        return inner
    return InstrumentedSystem(inner, observers)


class InstrumentedSystem:
    """A :class:`MemorySystem` that narrates another system's run.

    Composes any number of observers over any conforming inner system —
    engines cannot tell the difference, and the inner system's accounting
    is untouched (the wrapper charges nothing of its own).
    """

    def __init__(
        self, inner: MemorySystem, observers: "list[Observer] | None" = None
    ) -> None:
        self.inner = inner
        self.observers: list[Observer] = []
        for observer in observers or []:
            self.add_observer(observer)

    @classmethod
    def profiled(cls, inner: MemorySystem) -> "InstrumentedSystem":
        """The standard profiling stack: phase profiler + iteration timeline."""
        return cls(inner, [PhaseProfiler(), IterationTimeline()])

    def add_observer(self, observer: Observer) -> Observer:
        self.observers.append(observer)
        observer.on_attach(self)
        return observer

    def observer(self, kind: type) -> "Observer | None":
        """The first attached observer of ``kind``, or ``None``."""
        for observer in self.observers:
            if isinstance(observer, kind):
                return observer
        return None

    # -- identity ------------------------------------------------------------

    @property
    def config(self) -> SystemConfig:
        return self.inner.config

    @property
    def hierarchy(self) -> "MemoryHierarchy | None":
        return self.inner.hierarchy

    # -- charging ------------------------------------------------------------

    def port(self, core: int, array: ArrayId, channel: str) -> Port:
        """The inner system's port, reporting each access to the observers.

        Observers get one ``on_access`` per call, so an engine's offsets
        pair is two observed accesses.  The observer list is bound live:
        an observer added later sees the accesses of ports bound earlier.
        """
        inner = self.inner.port(core, array, channel)
        observers = self.observers

        def observed(index: int) -> int:
            latency = inner(index)
            for observer in observers:
                observer.on_access(channel, core, array, index, latency)
            return latency

        return observed

    def charge_compute(self, core: int, cycles: float) -> None:
        self.inner.charge_compute(core, cycles)
        for observer in self.observers:
            observer.on_compute(core, cycles)

    def charge_compute_run(self, core: int, cycles: float, count: int) -> None:
        # Observers are promised one on_compute per charge.
        for _ in range(count):
            self.charge_compute(core, cycles)

    def charge_engine(self, core: int, cycles: float) -> None:
        self.inner.charge_engine(core, cycles)
        for observer in self.observers:
            observer.on_engine(core, cycles)

    # -- phase structure -----------------------------------------------------

    def barrier(self) -> float:
        elapsed = self.inner.barrier()
        for observer in self.observers:
            observer.on_barrier(elapsed)
        return elapsed

    def on_event(self, event: EngineEvent) -> None:
        self.inner.on_event(event)
        for observer in self.observers:
            observer.on_event(event)

    # -- results -------------------------------------------------------------

    @property
    def breakdown(self) -> TimingBreakdown:
        return self.inner.breakdown

    @property
    def total_cycles(self) -> float:
        return self.inner.total_cycles

    def dram_accesses(self) -> int:
        return self.inner.dram_accesses()

    def dram_breakdown(self) -> dict[ArrayId, int]:
        return self.inner.dram_breakdown()

    def dram_writebacks(self) -> int:
        return self.inner.dram_writebacks()

    def dram_writeback_breakdown(self) -> dict[ArrayId, int]:
        return self.inner.dram_writeback_breakdown()

    # -- telemetry assembly --------------------------------------------------

    def violations(self) -> list[str]:
        """Invariant violations reported by any attached observer."""
        found: list[str] = []
        for observer in self.observers:
            found.extend(observer.violations())
        return found

    def telemetry(
        self,
        chain_stats: "dict[str, float] | None" = None,
        fifo: "dict[str, float] | None" = None,
    ) -> RunTelemetry:
        """Assemble what the attached observers learned into one record."""
        profiler = self.observer(PhaseProfiler)
        timeline = self.observer(IterationTimeline)
        return RunTelemetry(
            phases=dict(profiler.phases) if isinstance(profiler, PhaseProfiler) else {},
            iterations=(
                list(timeline.iterations)
                if isinstance(timeline, IterationTimeline)
                else []
            ),
            chain_stats=dict(chain_stats or {}),
            fifo=dict(fifo or {}),
            violations=self.violations(),
        )
