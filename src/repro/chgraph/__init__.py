"""ChGraph hardware models: FIFOs, HCG, CP, device interface, area."""

from repro._exports import exports

__getattr__, __all__ = exports(__name__, {
    "AreaReport": "area",
    "BoundedFifo": "fifo",
    "ChGraphConfigRegisters": "engine",
    "ChGraphDevice": "engine",
    "CpCost": "prefetcher",
    "HardwareChainGenerator": "hcg",
    "HcgCost": "hcg",
    "HcgPorts": "hcg",
    "area_report": "area",
})
