"""Energy accounting (McPAT / DDR datasheet style constants).

The paper derives chip energy with McPAT and memory energy from Micron
datasheets.  We use representative 65 nm-era per-event energies; as with
timing, only *relative* energy between schedulers is meaningful.
"""

from __future__ import annotations

import dataclasses

from repro.records import Record
from repro.sim.hierarchy import MemoryHierarchy

__all__ = ["EnergyModel", "EnergyReport"]


@dataclasses.dataclass(frozen=True)
class EnergyReport(Record):
    """Energy totals in nanojoules, split by component.

    ``dram_nj`` is the *read* side (line fetches); ``dram_write_nj`` is the
    writeback traffic the hierarchy drains to memory.  Both count toward
    :attr:`memory_fraction` — a write-heavy app spends channel energy on
    lines it never fetches again.
    """

    l1_nj: float
    l2_nj: float
    l3_nj: float
    dram_nj: float
    core_nj: float
    dram_write_nj: float = 0.0

    @property
    def dram_total_nj(self) -> float:
        """DRAM energy over both directions: fetches plus writebacks."""
        return self.dram_nj + self.dram_write_nj

    @property
    def total_nj(self) -> float:
        return (
            self.l1_nj + self.l2_nj + self.l3_nj + self.dram_total_nj
            + self.core_nj
        )

    @property
    def memory_fraction(self) -> float:
        total = self.total_nj
        return (self.dram_total_nj / total) if total else 0.0


class EnergyModel:
    """Per-event energy constants (65 nm class)."""

    L1_ACCESS_NJ = 0.010
    L2_ACCESS_NJ = 0.035
    L3_ACCESS_NJ = 0.180
    DRAM_LINE_NJ = 20.0
    DRAM_WRITE_NJ = 20.0
    CORE_CYCLE_NJ = 0.10

    def report(
        self, hierarchy: MemoryHierarchy, compute_cycles: float
    ) -> EnergyReport:
        """Aggregate energy from hierarchy counters and core busy cycles."""
        l1_accesses = sum(cache.stats.accesses for cache in hierarchy.l1)
        l2_accesses = sum(cache.stats.accesses for cache in hierarchy.l2)
        l3_accesses = hierarchy.l3.stats.accesses
        dram_lines = hierarchy.dram_accesses()
        dram_writebacks = hierarchy.writebacks()
        return EnergyReport(
            l1_nj=l1_accesses * self.L1_ACCESS_NJ,
            l2_nj=l2_accesses * self.L2_ACCESS_NJ,
            l3_nj=l3_accesses * self.L3_ACCESS_NJ,
            dram_nj=dram_lines * self.DRAM_LINE_NJ,
            core_nj=compute_cycles * self.CORE_CYCLE_NJ,
            dram_write_nj=dram_writebacks * self.DRAM_WRITE_NJ,
        )
