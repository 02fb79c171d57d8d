"""Chain-driven prefetcher (CP) cost model (§V-B).

The CP is a 4-stage pipeline — *element acquisition*, *offsets fetching*,
*neighbors fetching*, *values fetching* — that walks the chain FIFO and
packs ``{src, dst, src_value, dst_value}`` tuples into the bipartite-edge
FIFO.  Unlike the HCG's pointer chase, the CP's loads for upcoming chain
elements are independent, so their latencies overlap up to the engine's
effective MLP (bounded by the FIFO depths).  The CP walk itself is the
shared push loop, :func:`repro.engine.base.process_elements`, with its
loads bound on the engine channel: it interleaves the walk with the core's
Apply and returns its counters here.
"""

from __future__ import annotations

import dataclasses

__all__ = ["CpCost"]


@dataclasses.dataclass
class CpCost:
    """Cycle accounting of one CP walk."""

    beats: int = 0  # one per element acquired and per tuple packed (II=1)
    overlapped_latency: float = 0.0  # raw latency of independent prefetches

    def engine_cycles(self, stage_cycles: float, engine_mlp: float) -> float:
        """Busy time of the CP: beat throughput plus overlapped miss time."""
        return self.beats * stage_cycles + self.overlapped_latency / engine_mlp
