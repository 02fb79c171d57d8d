"""Memory-trace record and replay over :class:`~repro.sim.observe.TraceObserver`.

Recording is observation: attach a ``TraceObserver`` to an
:class:`~repro.sim.observe.InstrumentedSystem` and every access an engine
makes through the facade's ports — demand and engine channels alike —
lands in ``observer.trace``::

    system = InstrumentedSystem(SimulatedSystem(config), [TraceObserver()])

This module holds the rest of the round trip: the :class:`TraceEvent`
record, :func:`replay` through a fresh hierarchy, and a ``kind core array
index`` text form (:func:`save_trace` / :func:`load_trace`).  Traces
decouple *what a scheduler accesses* from *what a hierarchy does with it*:
record once, then replay the same stream through differently-sized
hierarchies, or feed it to :mod:`repro.sim.reuse` for stack-distance
analysis.  Because ports are an engine's only way to memory, a recorded
trace is complete: replaying it through a hierarchy of the recording
configuration reproduces every cache and DRAM counter of the run.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable

from repro.sim.config import SystemConfig
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId
from repro.sim.protocol import CHANNELS, Port

__all__ = ["TraceEvent", "replay", "save_trace", "load_trace"]

#: Event kinds: the port channel the access used.
KINDS = CHANNELS


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One recorded memory access."""

    kind: str  # one of KINDS
    core: int
    array: ArrayId
    index: int


def replay(
    trace: Iterable[TraceEvent], config: SystemConfig
) -> MemoryHierarchy:
    """Replay a trace through a fresh hierarchy; returns it for inspection.

    Each event goes down its channel's path: demand events through the
    core's L1, engine events through its L2.
    """
    hierarchy = MemoryHierarchy(config)
    ports: dict[tuple[str, int, ArrayId], Port] = {}
    for event in trace:
        key = (event.kind, event.core, event.array)
        port = ports.get(key)
        if port is None:
            port = ports[key] = hierarchy.port(event.core, event.array, event.kind)
        port(event.index)
    return hierarchy


def save_trace(trace: Iterable[TraceEvent], path: str | Path) -> None:
    """Write a trace as ``kind core array index`` lines."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for event in trace:
            handle.write(
                f"{event.kind} {event.core} {event.array.name} {event.index}\n"
            )


def load_trace(path: str | Path) -> list[TraceEvent]:
    """Read a trace written by :func:`save_trace`.

    Raises ``ValueError`` naming the file and line for an event kind
    outside :data:`KINDS`.
    """
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            kind, core, array, index = line.split()
            if kind not in KINDS:
                raise ValueError(
                    f"{path}:{number}: unknown trace event kind {kind!r} "
                    f"(expected one of {', '.join(KINDS)})"
                )
            events.append(
                TraceEvent(kind, int(core), ArrayId[array], int(index))
            )
    return events
