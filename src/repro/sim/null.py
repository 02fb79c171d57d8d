"""A zero-cost stand-in for :class:`~repro.sim.system.SimulatedSystem`.

Running an engine against a ``NullSystem`` executes the full algorithm
semantics without any cache or timing simulation — the fastest way to get
*answers* (used by correctness tests and by callers who only want results).
It conforms to the :class:`~repro.sim.protocol.MemorySystem` protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.config import SystemConfig, scaled_config
from repro.sim.layout import ArrayId
from repro.sim.timing import TimingBreakdown

if TYPE_CHECKING:
    from repro.sim.hierarchy import MemoryHierarchy
    from repro.sim.protocol import EngineEvent, Port

__all__ = ["NullSystem"]


def _free(index: int) -> int:
    """The constant port: every access is free."""
    return 0


class NullSystem:
    """Implements the :class:`SimulatedSystem` charging interface as no-ops."""

    #: No cache hierarchy is attached.
    hierarchy: "MemoryHierarchy | None" = None

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or scaled_config()

    def port(self, core: int, array: ArrayId, channel: str) -> "Port":
        return _free

    def charge_compute(self, core: int, cycles: float) -> None:
        pass

    def charge_compute_run(self, core: int, cycles: float, count: int) -> None:
        pass

    def charge_engine(self, core: int, cycles: float) -> None:
        pass

    def barrier(self) -> float:
        return 0.0

    def on_event(self, event: "EngineEvent") -> None:
        pass

    @property
    def breakdown(self) -> TimingBreakdown:
        return TimingBreakdown()

    @property
    def total_cycles(self) -> float:
        return 0.0

    def dram_accesses(self) -> int:
        return 0

    def dram_breakdown(self) -> dict[ArrayId, int]:
        return {array: 0 for array in ArrayId}

    def dram_writebacks(self) -> int:
        return 0

    def dram_writeback_breakdown(self) -> dict[ArrayId, int]:
        return {array: 0 for array in ArrayId}
