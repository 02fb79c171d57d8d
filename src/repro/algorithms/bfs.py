"""Breadth-first search on a hypergraph.

Distances count bipartite hops: a vertex at distance ``d`` activates its
unvisited incident hyperedges at ``d + 1``, which activate their unvisited
member vertices at ``d + 2``.  Dividing vertex distances by two recovers the
"number of hyperedges crossed" metric.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    AlgorithmState,
    HypergraphAlgorithm,
    Update,
    check_source,
)
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["Bfs", "UNREACHED"]

#: Sentinel distance for unreached elements.
UNREACHED = np.inf


class Bfs(HypergraphAlgorithm):
    """Hypergraph BFS from a source vertex."""

    name = "BFS"
    apply_cost_factor = 0.7

    def __init__(self, source: int = 0) -> None:
        self.source = source

    def init_state(self, hypergraph: Hypergraph) -> AlgorithmState:
        check_source(self.source, hypergraph)
        vertex_values = np.full(hypergraph.num_vertices, UNREACHED)
        hyperedge_values = np.full(hypergraph.num_hyperedges, UNREACHED)
        vertex_values[self.source] = 0.0
        return AlgorithmState(
            vertex_values=vertex_values,
            hyperedge_values=hyperedge_values,
            frontier_v=Frontier(hypergraph.num_vertices, [self.source]),
            frontier_e=Frontier(hypergraph.num_hyperedges),
        )

    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Update:
        src_values, dst_values = state.sides(phase)

        def apply(src: int, dst: int) -> bool:
            if dst_values[dst] != UNREACHED:
                return False
            dst_values[dst] = src_values[src] + 1.0
            return True

        return apply
