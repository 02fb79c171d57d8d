"""Connected components via min-label propagation.

A hyperedge's label is the minimum over its members; a vertex's label is the
minimum over its hyperedges.  Propagation continues until no label changes.
Two vertices end with equal labels iff they are connected through some
sequence of hyperedges.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmState, HypergraphAlgorithm, Update
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["ConnectedComponents"]


class ConnectedComponents(HypergraphAlgorithm):
    """Label-propagation connected components."""

    name = "CC"
    apply_cost_factor = 0.8

    def init_state(self, hypergraph: Hypergraph) -> AlgorithmState:
        return AlgorithmState(
            vertex_values=np.arange(hypergraph.num_vertices, dtype=np.float64),
            hyperedge_values=np.full(hypergraph.num_hyperedges, np.inf),
            frontier_v=Frontier.all_active(hypergraph.num_vertices),
            frontier_e=Frontier(hypergraph.num_hyperedges),
        )

    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Update:
        src_values, dst_values = state.sides(phase)

        def apply(src: int, dst: int) -> bool:
            label = src_values[src]
            if label < dst_values[dst]:
                dst_values[dst] = label
                return True
            return False

        return apply
