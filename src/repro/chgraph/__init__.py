"""ChGraph hardware models: FIFOs, HCG, CP, device interface, area."""

from repro.chgraph.area import AreaReport, area_report
from repro.chgraph.engine import ChGraphConfigRegisters, ChGraphDevice
from repro.chgraph.fifo import BoundedFifo
from repro.chgraph.hcg import HardwareChainGenerator, HcgCost, HcgPorts
from repro.chgraph.prefetcher import CpCost

__all__ = [
    "AreaReport",
    "BoundedFifo",
    "ChGraphConfigRegisters",
    "ChGraphDevice",
    "CpCost",
    "HardwareChainGenerator",
    "HcgCost",
    "HcgPorts",
    "area_report",
]
