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
    from repro.sim.protocol import EngineEvent

__all__ = ["NullSystem"]


class NullSystem:
    """Implements the :class:`SimulatedSystem` charging interface as no-ops."""

    #: No cache hierarchy is attached; engines skip raw accesses when None.
    hierarchy: "MemoryHierarchy | None" = None

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or scaled_config()

    def read(self, core: int, array: ArrayId, index: int) -> int:
        return 0

    def read_serial(self, core: int, array: ArrayId, index: int) -> int:
        return 0

    def write(self, core: int, array: ArrayId, index: int) -> int:
        return 0

    def read_block(self, core: int, array: ArrayId, start: int, count: int) -> int:
        return 0

    def read_serial_block(
        self, core: int, array: ArrayId, start: int, count: int
    ) -> int:
        return 0

    def write_block(self, core: int, array: ArrayId, start: int, count: int) -> int:
        return 0

    def charge_compute(self, core: int, cycles: float) -> None:
        pass

    def charge_compute_run(self, core: int, cycles: float, count: int) -> None:
        pass

    def demand_writer(self, core: int, array: ArrayId):
        def write_one(index: int) -> int:
            return 0

        return write_one

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
