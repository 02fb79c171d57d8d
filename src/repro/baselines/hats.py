"""HATS-V: the paper's hypergraph-capable variant of HATS (§II-C, Fig 7).

HATS (Mukkara et al., MICRO'18) is a hardware traversal scheduler that runs
bounded depth-first exploration over an ordinary graph's CSR to produce a
locality-aware vertex order.  It has no notion of hyperedges, so the paper
builds **HATS-V** with three modifications: index renumbering to distinguish
the two element kinds, added control logic to traverse the two CSR
directions alternately, and split update semantics.

The crucial remaining deficiencies — which this model reproduces — are:

* HATS-V explores the *bipartite structure itself*, not the OAG, so finding
  the next same-side element requires traversing **two** bipartite edges
  (element -> incident neighbor -> that neighbor's incident element), extra
  engine traffic ChGraph never pays;
* its BDFS order is overlap-*oblivious*: it follows whichever neighbor
  appears first rather than the maximally-overlapped successor, so it
  recovers only part of the chain order's locality.
"""

from __future__ import annotations

import numpy as np

from repro.core.oag import Oag
from repro.engine.base import Phase
from repro.engine.chgraph_engine import ChGraphEngine
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk

__all__ = ["HatsVEngine", "bdfs_order"]


def bdfs_order(
    hypergraph: Hypergraph,
    side: str,
    active: np.ndarray,
    first_id: int,
    depth_limit: int = 16,
    visit_budget: int = 64,
) -> tuple[list[int], int]:
    """Bounded DFS over the bipartite structure, HATS style.

    Returns the schedule (global ids within ``[first_id, first_id+len)``)
    and the number of bipartite edges traversed to *discover* it (the
    two-hop neighbor-finding overhead).  ``visit_budget`` bounds how many
    incident entries are inspected per exploration step, mirroring HATS's
    bounded traversal buffers.
    """
    src_csr = hypergraph.side(side)
    other_csr = hypergraph.side("vertex" if side == "hyperedge" else "hyperedge")
    remaining = active.copy()
    order: list[int] = []
    traversed = 0

    for root_local in range(active.size):
        if not remaining[root_local]:
            continue
        stack = [(first_id + root_local, 0)]
        remaining[root_local] = False
        while stack:
            element, depth = stack.pop()
            order.append(element)
            if depth >= depth_limit:
                continue
            # Two-hop neighbor discovery through the bipartite graph.
            inspected = 0
            for mid in src_csr.neighbors(element):
                if inspected >= visit_budget:
                    break
                traversed += 1
                for nxt in other_csr.neighbors(int(mid)):
                    inspected += 1
                    traversed += 1
                    if inspected >= visit_budget:
                        break
                    local = int(nxt) - first_id
                    if 0 <= local < active.size and remaining[local]:
                        remaining[local] = False
                        stack.append((int(nxt), depth + 1))
    return order, traversed


class HatsVEngine(ChGraphEngine):
    """HATS-V: hardware BDFS scheduling without the OAG.

    Reuses ChGraph's decoupled prefetch datapath (HATS also prefetches along
    its schedule) but generates the order with :func:`bdfs_order`, charging
    the two-hop discovery traffic to the engine.
    """

    name = "HATS-V"

    def _generate_chunk(
        self, phase: Phase, chunk: Chunk, oag: Oag, edge_base: int
    ) -> tuple[list[int], float]:
        active = phase.frontier.bitmap[chunk.first : chunk.last]
        order, traversed = bdfs_order(
            phase.hypergraph, phase.spec.src_side, active, chunk.first
        )
        # Each traversal step is a pipeline beat plus an incident-array read.
        # Those reads walk the same arrays the prefetcher is streaming, so
        # they are predominantly L2 hits; charge them analytically rather
        # than perturbing the hierarchy state.
        config = phase.system.config
        cycles = traversed * (
            config.hw_stage_cycles + config.l2_latency / config.engine_mlp
        )
        self._stats["generations"] += 1
        self._stats["chains"] += 1
        self._stats["elements"] += len(order)
        self._stats["inspections"] += traversed
        return order, cycles
