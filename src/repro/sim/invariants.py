"""Runtime invariant checking over an instrumented simulation.

:class:`InvariantChecker` is an :class:`~repro.sim.observe.Observer`: attach
it to an :class:`~repro.sim.observe.InstrumentedSystem` and every barrier
audits the hierarchy's books.  Observation charges nothing, so a checked
run's results are bit-identical to an unchecked one — the checker *reads*
cache state through the stat-free probes (``contains``/``is_dirty``/
``victim_of``/``max_set_occupancy``) and never touches LRU order.

What is asserted:

- **Counter conservation.**  Per-level access counts must telescope: L1
  demand accesses equal the hierarchy's demand probes, L2 accesses equal L1
  misses plus engine probes, L3 accesses equal L2 misses, DRAM fetches
  equal L3 misses, and the per-array DRAM attributions must sum to the DRAM
  totals.  The equations are written against the *hierarchy's own*
  counters (``demand_probes``/``engine_probes``), which every port call
  bumps.
- **Measurement coverage.**  The demand accesses the facade observed must
  equal the hierarchy's demand probes, and the engine accesses it observed
  must equal the hierarchy's engine probes — an engine reaching memory
  behind the observers' backs, on either channel, is itself a violation.
- **Dirty-line conservation.**  Every line dirtied by a demand write stays
  dirty-resident in some cache until it is retired by exactly one DRAM
  writeback (the hierarchy's ``on_writeback`` hook).  This is the check
  that catches the "dirty bits silently dropped during fill /
  back-invalidation" bug class.
- **L3 inclusion.**  Under ``inclusive_l3``, every line resident in a
  private cache must be resident in the L3.
- **Structural bounds.**  No cache set exceeds its associativity; watched
  FIFOs stay within ``0 <= occupancy <= depth`` with ``pops <= pushes``.
- **Frontier integrity.**  On every phase event carrying a live
  :class:`~repro.hypergraph.frontier.Frontier`, its memoized count must
  equal an uncached popcount of its bitmap.

Violations accumulate as human-readable strings (capped), surface through
:meth:`~repro.sim.observe.InstrumentedSystem.telemetry` into
:class:`~repro.sim.telemetry.RunTelemetry.violations`, and optionally raise
:class:`InvariantViolationError` immediately (``strict=True``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.cache import Cache
from repro.sim.observe import InstrumentedSystem, Observer
from repro.sim.protocol import PHASE_BEGIN, PHASE_END, EngineEvent

if TYPE_CHECKING:
    from repro.chgraph.fifo import BoundedFifo
    from repro.sim.hierarchy import MemoryHierarchy
    from repro.sim.layout import ArrayId

__all__ = ["InvariantChecker", "InvariantViolationError", "check_fifo"]


class InvariantViolationError(AssertionError):
    """A simulation invariant failed (raised only in ``strict`` mode)."""


def check_fifo(fifo: "BoundedFifo", name: str = "fifo") -> list[str]:
    """Structural invariants of one bounded FIFO, as violation strings."""
    violations: list[str] = []
    occupancy = len(fifo)
    if not 0 <= occupancy <= fifo.depth:
        violations.append(
            f"{name}: occupancy {occupancy} outside [0, {fifo.depth}]"
        )
    if fifo.max_occupancy > fifo.depth:
        violations.append(
            f"{name}: max_occupancy {fifo.max_occupancy} > depth {fifo.depth}"
        )
    if fifo.pops > fifo.pushes:
        violations.append(
            f"{name}: pops {fifo.pops} > pushes {fifo.pushes}"
        )
    if fifo.pushes - fifo.pops != occupancy:
        violations.append(
            f"{name}: pushes - pops = {fifo.pushes - fifo.pops} "
            f"!= occupancy {occupancy}"
        )
    return violations


class _CounterBaseline:
    """Counter values at attach time, so a checker can audit a system that
    already has history (deltas, not absolutes)."""

    def __init__(self, hierarchy: "MemoryHierarchy") -> None:
        self.l1_accesses = sum(c.stats.accesses for c in hierarchy.l1)
        self.l1_misses = sum(c.stats.misses for c in hierarchy.l1)
        self.l2_accesses = sum(c.stats.accesses for c in hierarchy.l2)
        self.l2_misses = sum(c.stats.misses for c in hierarchy.l2)
        self.l3_accesses = hierarchy.l3.stats.accesses
        self.l3_misses = hierarchy.l3.stats.misses
        self.dram_accesses = hierarchy.dram.accesses
        self.dram_writes = hierarchy.dram.writes
        self.dram_by_array = sum(hierarchy.dram_by_array)
        self.dram_writebacks_by_array = sum(hierarchy.dram_writebacks_by_array)
        self.demand_probes = hierarchy.demand_probes
        self.engine_probes = hierarchy.engine_probes


class InvariantChecker(Observer):
    """Audits hierarchy bookkeeping at every barrier; charges nothing."""

    def __init__(self, strict: bool = False, max_violations: int = 50) -> None:
        self.strict = strict
        self.max_violations = max_violations
        self.barriers_checked = 0
        self._violations: list[str] = []
        self._truncated = False
        self._hierarchy: "MemoryHierarchy | None" = None
        self._baseline: _CounterBaseline | None = None
        self._observed_demand = 0
        self._observed_engine = 0
        self._fifos: dict[str, "BoundedFifo"] = {}
        # Lines believed dirty in some cache: demand writes add, DRAM
        # writebacks retire.
        self._dirty_shadow: set[int] = set()

    # -- wiring --------------------------------------------------------------

    def on_attach(self, system: "InstrumentedSystem") -> None:
        hierarchy = system.hierarchy
        self._hierarchy = hierarchy
        if hierarchy is None:
            return
        self._baseline = _CounterBaseline(hierarchy)
        for cache in self._caches(hierarchy):
            self._dirty_shadow.update(cache.dirty_lines())
        previous: Callable[[int], None] | None = hierarchy.on_writeback

        def hook(line: int) -> None:
            if previous is not None:
                previous(line)
            self._on_writeback(line)

        hierarchy.on_writeback = hook

    def watch_fifo(self, name: str, fifo: "BoundedFifo") -> None:
        """Include ``fifo`` in the per-barrier structural checks."""
        self._fifos[name] = fifo

    # -- violation plumbing --------------------------------------------------

    def violations(self) -> list[str]:
        found = list(self._violations)
        if self._truncated:
            found.append(
                f"... further violations suppressed "
                f"(cap {self.max_violations})"
            )
        return found

    @property
    def ok(self) -> bool:
        return not self._violations

    def _report(self, message: str) -> None:
        if self.strict:
            raise InvariantViolationError(message)
        if len(self._violations) >= self.max_violations:
            self._truncated = True
            return
        self._violations.append(message)

    @staticmethod
    def _caches(hierarchy: "MemoryHierarchy") -> list[Cache]:
        return [*hierarchy.l1, *hierarchy.l2, hierarchy.l3]

    # -- observer hooks ------------------------------------------------------

    def on_access(
        self, kind: str, core: int, array: "ArrayId", index: int, latency: int
    ) -> None:
        if kind == "engine":
            self._observed_engine += 1
        else:
            self._observed_demand += 1
        if latency < 0:
            self._report(
                f"access {kind} core={core} {array.name}[{index}]: "
                f"negative latency {latency}"
            )
        if kind == "write" and self._hierarchy is not None:
            self._dirty_shadow.add(self._hierarchy.layout.line_of(array, index))

    def _on_writeback(self, line: int) -> None:
        if self._hierarchy is None:
            return
        if line not in self._dirty_shadow:
            self._report(
                f"writeback of line {line} that was never dirtied"
            )
            return
        # Retire the line unless another cache level still holds it dirty
        # (e.g. an L3 copy written back while a re-dirtied L1 copy lives on).
        if not any(
            cache.is_dirty(line) for cache in self._caches(self._hierarchy)
        ):
            self._dirty_shadow.discard(line)

    def on_event(self, event: EngineEvent) -> None:
        frontier = event.frontier
        if frontier is None or event.kind not in (PHASE_BEGIN, PHASE_END):
            return
        cached = frontier.cached_count()
        if cached is None:
            return
        actual = frontier.recount()
        if cached != actual:
            self._report(
                f"{event.kind} iter={event.iteration} phase={event.phase}: "
                f"frontier cached count {cached} != popcount {actual}"
            )

    def on_barrier(self, elapsed: float) -> None:
        self.barriers_checked += 1
        if elapsed < 0:
            self._report(f"barrier returned negative phase time {elapsed}")
        hierarchy = self._hierarchy
        if hierarchy is not None:
            self._check_conservation(hierarchy)
            self._check_dirty_residency(hierarchy)
            self._check_inclusion(hierarchy)
            self._check_occupancy(hierarchy)
        for name, fifo in self._fifos.items():
            for message in check_fifo(fifo, name):
                self._report(message)

    # -- barrier checks ------------------------------------------------------

    def _check_conservation(self, hierarchy: "MemoryHierarchy") -> None:
        base = self._baseline
        if base is None:
            return
        now = _CounterBaseline(hierarchy)
        for cache in self._caches(hierarchy):
            stats = cache.stats
            if stats.hits + stats.misses != stats.accesses:
                self._report(
                    f"{cache!r}: hits {stats.hits} + misses {stats.misses} "
                    f"!= accesses {stats.accesses}"
                )
        equations = [
            (
                "L1 demand accesses",
                now.l1_accesses - base.l1_accesses,
                "hierarchy demand probes",
                now.demand_probes - base.demand_probes,
            ),
            (
                "L2 accesses",
                now.l2_accesses - base.l2_accesses,
                "L1 misses + engine probes",
                (now.l1_misses - base.l1_misses)
                + (now.engine_probes - base.engine_probes),
            ),
            (
                "L3 accesses",
                now.l3_accesses - base.l3_accesses,
                "L2 misses",
                now.l2_misses - base.l2_misses,
            ),
            (
                "DRAM fetches",
                now.dram_accesses - base.dram_accesses,
                "L3 misses",
                now.l3_misses - base.l3_misses,
            ),
            (
                "per-array DRAM fetches",
                now.dram_by_array - base.dram_by_array,
                "DRAM fetches",
                now.dram_accesses - base.dram_accesses,
            ),
            (
                "per-array DRAM writebacks",
                now.dram_writebacks_by_array - base.dram_writebacks_by_array,
                "DRAM writes",
                now.dram_writes - base.dram_writes,
            ),
            (
                "observed demand accesses",
                self._observed_demand,
                "hierarchy demand probes",
                now.demand_probes - base.demand_probes,
            ),
            (
                "observed engine accesses",
                self._observed_engine,
                "hierarchy engine probes",
                now.engine_probes - base.engine_probes,
            ),
        ]
        for left_name, left, right_name, right in equations:
            if left != right:
                self._report(
                    f"conservation: {left_name} ({left}) != "
                    f"{right_name} ({right})"
                )

    def _check_dirty_residency(self, hierarchy: "MemoryHierarchy") -> None:
        caches = self._caches(hierarchy)
        resident_dirty: set[int] = set()
        for cache in caches:
            resident_dirty.update(cache.dirty_lines())
        lost = self._dirty_shadow - resident_dirty
        for line in sorted(lost):
            self._report(
                f"dirty line {line} lost: neither resident in any cache "
                f"nor retired by a DRAM writeback"
            )
        self._dirty_shadow -= lost  # report each loss once
        untracked = resident_dirty - self._dirty_shadow
        for line in sorted(untracked):
            self._report(
                f"cache holds dirty line {line} that no observed demand "
                f"write produced"
            )
        self._dirty_shadow |= untracked

    def _check_inclusion(self, hierarchy: "MemoryHierarchy") -> None:
        if not hierarchy.config.inclusive_l3:
            return
        l3 = hierarchy.l3
        for core in range(hierarchy.config.num_cores):
            for level, cache in (("L1", hierarchy.l1[core]), ("L2", hierarchy.l2[core])):
                for line in cache.resident_lines():
                    if not l3.contains(line):
                        self._report(
                            f"inclusion: core {core} {level} holds line "
                            f"{line} absent from the inclusive L3"
                        )

    def _check_occupancy(self, hierarchy: "MemoryHierarchy") -> None:
        for cache in self._caches(hierarchy):
            occupancy = cache.max_set_occupancy()
            if occupancy > cache.associativity:
                self._report(
                    f"{cache!r}: set occupancy {occupancy} exceeds "
                    f"associativity {cache.associativity}"
                )
