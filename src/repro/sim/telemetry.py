"""Structured run telemetry: where the cycles and DRAM accesses went.

A profiled run (one wrapped in
:class:`~repro.sim.observe.InstrumentedSystem`) yields a
:class:`RunTelemetry` record on its
:class:`~repro.engine.result.RunResult`: per-phase cycle and DRAM-by-array
totals, a per-iteration timeline of frontier size/density and phase cost,
the engine's chain statistics, and (for ChGraph) FIFO occupancy.  This is
the data behind the paper's *why* figures — phase breakdowns (Fig 15/16),
frontier evolution, and the locality story of chain scheduling.

The records are plain data, JSON round-trippable through
:class:`repro.records.Record`, so they persist through the artifact store
with the rest of the run.
"""

from __future__ import annotations

import dataclasses

from repro.records import Record
from repro.sim.layout import ArrayId

__all__ = [
    "IterationProfile",
    "PhaseProfile",
    "PhaseSample",
    "RunTelemetry",
]


@dataclasses.dataclass
class PhaseProfile(Record):
    """Aggregate cost of every execution of one phase kind in a run."""

    phase: str
    activations: int = 0
    cycles: float = 0.0
    compute_cycles: float = 0.0
    memory_latency: float = 0.0  # demand (read/write/serial) latency only
    engine_cycles: float = 0.0
    # Accesses per port channel, engine accesses included.
    accesses: dict[str, int] = dataclasses.field(default_factory=dict)
    dram_accesses: int = 0
    dram_by_array: dict[ArrayId, int] = dataclasses.field(default_factory=dict)
    dram_writebacks: int = 0


@dataclasses.dataclass
class PhaseSample(Record):
    """One phase execution inside one iteration of the timeline."""

    phase: str
    frontier_size: int
    frontier_density: float
    cycles: float
    dram_accesses: int


@dataclasses.dataclass
class IterationProfile(Record):
    """The phases one iteration executed, in order."""

    iteration: int
    phases: list[PhaseSample] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class RunTelemetry(Record):
    """Everything the observers learned about one profiled run."""

    phases: dict[str, PhaseProfile] = dataclasses.field(default_factory=dict)
    iterations: list[IterationProfile] = dataclasses.field(default_factory=list)
    chain_stats: dict[str, float] = dataclasses.field(default_factory=dict)
    fifo: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Invariant violations observed during the run (empty on a clean run,
    #: and on unchecked runs).
    violations: list[str] = dataclasses.field(default_factory=list)

    @property
    def mean_frontier_density(self) -> float:
        """Mean driving-frontier density over all phase executions."""
        samples = [s for it in self.iterations for s in it.phases]
        if not samples:
            return 0.0
        return sum(s.frontier_density for s in samples) / len(samples)
