"""The result record every engine run produces."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.records import Record
from repro.sim.coherence import CoherenceStats
from repro.sim.energy import EnergyReport
from repro.sim.layout import ARRAY_GROUPS, ArrayId
from repro.sim.telemetry import RunTelemetry

__all__ = ["RunResult", "group_dram_breakdown"]


def group_dram_breakdown(by_array: dict[ArrayId, int]) -> dict[str, int]:
    """Collapse the per-array DRAM counts into Figure 15's five groups."""
    return {
        group: sum(by_array.get(array, 0) for array in arrays)
        for group, arrays in ARRAY_GROUPS.items()
    }


@dataclasses.dataclass
class RunResult(Record):
    """Everything a benchmark needs from one (engine, algorithm, dataset) run."""

    engine: str
    algorithm: str
    dataset: str
    result: np.ndarray
    vertex_values: np.ndarray
    hyperedge_values: np.ndarray
    iterations: int
    cycles: float
    compute_cycles: float
    memory_stall_cycles: float
    dram_accesses: int
    dram_by_array: dict[ArrayId, int]
    #: DRAM write traffic (dirty lines retired to memory), counted apart
    #: from the read-side ``dram_accesses`` that drive the paper's figures.
    dram_writebacks: int = 0
    dram_writebacks_by_array: dict[ArrayId, int] = dataclasses.field(
        default_factory=dict
    )
    chain_stats: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Populated only when the run was profiled (InstrumentedSystem attached).
    telemetry: RunTelemetry | None = None
    #: The run's energy, recorded by the runner that built the simulated
    #: system (``None`` from a bare ``engine.run``).
    energy: EnergyReport | None = None
    #: MESI protocol counters, recorded by the runner under
    #: ``track_coherence`` (``None`` otherwise).
    coherence: CoherenceStats | None = None

    @property
    def dram_by_group(self) -> dict[str, int]:
        return group_dram_breakdown(self.dram_by_array)

    @property
    def memory_stall_fraction(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.memory_stall_cycles / self.cycles)

    def speedup_over(self, other: "RunResult") -> float:
        """How much faster this run is than ``other`` (>1 means faster)."""
        if self.cycles <= 0:
            return float("inf")
        return other.cycles / self.cycles

    def dram_reduction_over(self, other: "RunResult") -> float:
        """Main-memory access reduction factor vs ``other`` (>1 is fewer)."""
        if self.dram_accesses <= 0:
            return float("inf")
        return other.dram_accesses / self.dram_accesses
