"""Structured run telemetry: where the cycles and DRAM accesses went.

A profiled run (one wrapped in
:class:`~repro.sim.observe.InstrumentedSystem`) yields a
:class:`RunTelemetry` record on its
:class:`~repro.engine.result.RunResult`: per-phase cycle and DRAM-by-array
totals, a per-iteration timeline of frontier size/density and phase cost,
the engine's chain statistics, and (for ChGraph) FIFO occupancy.  This is
the data behind the paper's *why* figures — phase breakdowns (Fig 15/16),
frontier evolution, and the locality story of chain scheduling.

The record is plain data: JSON round-trippable (``to_json``/``from_json``)
so it persists through the artifact store with the rest of the run.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.sim.layout import ArrayId

__all__ = [
    "IterationProfile",
    "PhaseProfile",
    "PhaseSample",
    "RunTelemetry",
]


@dataclasses.dataclass
class PhaseProfile:
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

    def to_json(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "activations": self.activations,
            "cycles": self.cycles,
            "compute_cycles": self.compute_cycles,
            "memory_latency": self.memory_latency,
            "engine_cycles": self.engine_cycles,
            "accesses": dict(self.accesses),
            "dram_accesses": self.dram_accesses,
            "dram_by_array": {
                str(int(array)): int(count)
                for array, count in self.dram_by_array.items()
            },
            "dram_writebacks": self.dram_writebacks,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "PhaseProfile":
        return cls(
            phase=payload["phase"],
            activations=payload["activations"],
            cycles=payload["cycles"],
            compute_cycles=payload["compute_cycles"],
            memory_latency=payload["memory_latency"],
            engine_cycles=payload["engine_cycles"],
            accesses={str(k): int(v) for k, v in payload["accesses"].items()},
            dram_accesses=payload["dram_accesses"],
            dram_by_array={
                ArrayId(int(key)): int(count)
                for key, count in payload["dram_by_array"].items()
            },
            dram_writebacks=int(payload.get("dram_writebacks", 0)),
        )


@dataclasses.dataclass
class PhaseSample:
    """One phase execution inside one iteration of the timeline."""

    phase: str
    frontier_size: int
    frontier_density: float
    cycles: float
    dram_accesses: int

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "PhaseSample":
        return cls(
            phase=payload["phase"],
            frontier_size=payload["frontier_size"],
            frontier_density=payload["frontier_density"],
            cycles=payload["cycles"],
            dram_accesses=payload["dram_accesses"],
        )


@dataclasses.dataclass
class IterationProfile:
    """The phases one iteration executed, in order."""

    iteration: int
    phases: list[PhaseSample] = dataclasses.field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "iteration": self.iteration,
            "phases": [sample.to_json() for sample in self.phases],
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "IterationProfile":
        return cls(
            iteration=payload["iteration"],
            phases=[PhaseSample.from_json(p) for p in payload["phases"]],
        )


@dataclasses.dataclass
class RunTelemetry:
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

    def to_json(self) -> dict[str, Any]:
        return {
            "phases": {
                phase: profile.to_json() for phase, profile in self.phases.items()
            },
            "iterations": [it.to_json() for it in self.iterations],
            "chain_stats": dict(self.chain_stats),
            "fifo": dict(self.fifo),
            "violations": list(self.violations),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "RunTelemetry":
        return cls(
            phases={
                phase: PhaseProfile.from_json(profile)
                for phase, profile in payload["phases"].items()
            },
            iterations=[
                IterationProfile.from_json(it) for it in payload["iterations"]
            ],
            chain_stats={
                str(k): float(v) for k, v in payload["chain_stats"].items()
            },
            fifo={str(k): float(v) for k, v in payload["fifo"].items()},
            violations=[str(v) for v in payload.get("violations", [])],
        )
