"""Hardware-accelerated chain generator (HCG) cost model (§V-B).

The HCG is a 4-stage pipeline — *root setting*, *offsets fetching*, *active
neighbors fetching*, *neighbor selection* — backed by a 16-deep stack.  The
chain semantics are exactly :class:`~repro.core.chain.ChainGenerator` (the
stack depth is the ``D_max`` bound); this module adds the hardware cost
accounting: one pipeline beat per micro-step, engine-side memory requests
for the bitmap and OAG arrays, and serial (dependency-chained) latency for
the OAG walk.  The requests go through :class:`HcgPorts`, the core's three
``engine``-channel ports, bound once per chunk.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from repro.core.chain import ChainGenerator, ChainProbe, ChainSet
from repro.core.oag import Oag
from repro.sim.config import SystemConfig
from repro.sim.layout import ArrayId
from repro.sim.protocol import MemorySystem, Port

__all__ = ["HcgCost", "HcgPorts", "HardwareChainGenerator"]


@dataclasses.dataclass
class HcgCost:
    """Cycle/traffic accounting of one HCG activation."""

    beats: int = 0  # pipeline micro-steps (1 element or inspection each)
    serial_latency: float = 0.0  # dependency-chained OAG/bitmap access time
    requests: int = 0  # engine-side memory requests issued

    def engine_cycles(self, stage_cycles: float) -> float:
        """Busy time of the HCG for this activation, in core cycles."""
        return self.beats * stage_cycles + self.serial_latency


class HcgPorts(NamedTuple):
    """One core's engine ports over the arrays the HCG reads."""

    bitmap: Port
    offsets: Port
    edges: Port

    @classmethod
    def bind(cls, system: MemorySystem, core: int) -> "HcgPorts":
        return cls(
            system.port(core, ArrayId.BITMAP, "engine"),
            system.port(core, ArrayId.OAG_OFFSET, "engine"),
            system.port(core, ArrayId.OAG_EDGE, "engine"),
        )


class _HcgProbe(ChainProbe):
    """Counts pipeline beats and issues engine-side accesses."""

    def __init__(
        self, ports: HcgPorts, cost: HcgCost, edge_base: int, dense: bool
    ) -> None:
        self.bitmap, self.offsets, self.edges = ports
        self.cost = cost
        self.edge_base = edge_base
        self.dense = dense

    def on_root_scan(self, element: int) -> None:
        cost = self.cost
        cost.beats += 1
        if not self.dense:
            cost.requests += 1
            cost.serial_latency += self.bitmap(element)

    def on_offsets_fetch(self, node: int) -> None:
        cost = self.cost
        cost.beats += 1
        cost.requests += 2
        offsets = self.offsets
        cost.serial_latency += offsets(node) + offsets(node + 1)

    def on_neighbor_inspect(self, node: int, position: int) -> None:
        cost = self.cost
        cost.beats += 1
        cost.requests += 1
        cost.serial_latency += self.edges(self.edge_base + position)

    def on_select(self, element: int) -> None:
        self.cost.beats += 1


class HardwareChainGenerator:
    """Per-core HCG: generates chains and reports hardware cost."""

    def __init__(self, config: SystemConfig, d_max: int) -> None:
        # The stack bounds the exploration depth; D_max cannot exceed it.
        self.config = config
        self.d_max = min(d_max, config.stack_depth)
        self._generator = ChainGenerator(d_max=self.d_max)

    def generate(
        self,
        active: np.ndarray,
        oag: Oag,
        ports: HcgPorts,
        edge_base: int = 0,
        dense: bool = False,
    ) -> tuple[ChainSet, HcgCost]:
        """Generate chains for one chunk with engine-side accesses.

        ``ports`` are the issuing core's engine ports
        (:meth:`HcgPorts.bind`); ``edge_base`` offsets the chunk's OAG edge
        positions into the global OAG_EDGE array.
        """
        cost = HcgCost()
        probe = _HcgProbe(ports, cost, edge_base, dense)
        chains = self._generator.generate(active, oag, probe=probe)
        return chains, cost
