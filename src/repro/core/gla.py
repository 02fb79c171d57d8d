"""The Generate-Load-Apply execution model (Algorithm 2), schedule side.

This module owns the *Generate* step as the software GLA engine and the
ChGraph engine both consume it: given the current frontier and the per-chunk
OAGs, produce each chunk's chain-ordered schedule.  The *Load* step is
:mod:`repro.core.tuples`; the *Apply* step is the algorithm's HF/VF and
lives with the execution engines.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.chain import ChainGenerator, ChainProbe, ChainSet
from repro.core.oag import Oag
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.partition import Chunk

__all__ = ["ChunkSchedule", "generate_schedules", "index_order_schedule"]


@dataclasses.dataclass
class ChunkSchedule:
    """The scheduling order for one chunk in one phase."""

    chunk: Chunk
    chains: ChainSet

    def order(self) -> list[int]:
        return list(self.chains.order())


def generate_schedules(
    frontier: Frontier,
    chunks: list[Chunk],
    oags: list[Oag],
    generator: ChainGenerator,
    probes: list[ChainProbe] | None = None,
) -> list[ChunkSchedule]:
    """Generate per-chunk chain schedules from the active frontier.

    ``oags[i]`` must be the OAG of ``chunks[i]``; ``probes[i]``, when given,
    receives the per-step instrumentation callbacks for chunk ``i`` (engines
    use this to charge chain-generation costs to the owning core).
    """
    if len(chunks) != len(oags):
        raise ValueError("chunks and oags must be parallel lists")
    schedules = []
    for i, (chunk, oag) in enumerate(zip(chunks, oags)):
        active = frontier.bitmap[chunk.first : chunk.last]
        probe = probes[i] if probes is not None else None
        chains = generator.generate(active, oag, probe=probe)
        schedules.append(ChunkSchedule(chunk=chunk, chains=chains))
    return schedules


def index_order_schedule(frontier: Frontier, chunk: Chunk) -> list[int]:
    """Hygra's schedule: active elements of the chunk in ascending index.

    ``frontier.ids()`` is sorted, so the chunk's ids are one slice of it.
    """
    ids = frontier.ids()
    lo, hi = np.searchsorted(ids, (chunk.first, chunk.last))
    return ids[lo:hi].tolist()
