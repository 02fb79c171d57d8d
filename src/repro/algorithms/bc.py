"""Betweenness centrality on a hypergraph (single-source Brandes).

Runs Brandes' algorithm over the bipartite representation: a forward BFS
accumulating shortest-path counts (sigma), then a backward sweep
accumulating dependencies (delta) level by level.  Hyperedge nodes mediate
paths but do not count as path endpoints, following the single-graph
formulation of hypergraph betweenness (HyperBC): when dependency flows back
from a hyperedge the ``+1`` endpoint term is omitted.

The backward sweep is expressed through the same HF/VF machinery — the
frontier simply walks the recorded BFS levels deepest-first — so every
engine (Hygra order, chain order, ChGraph) runs the identical computation.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    PHASE_HYPEREDGE,
    AlgorithmState,
    HypergraphAlgorithm,
    Update,
    check_source,
)
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["BetweennessCentrality"]

_FORWARD = "forward"
_BACKWARD = "backward"


class BetweennessCentrality(HypergraphAlgorithm):
    """Single-source betweenness contributions for every vertex."""

    name = "BC"
    apply_cost_factor = 1.5
    max_iterations = 10_000  # safety net; real bound is the BFS diameter

    def __init__(self, source: int = 0) -> None:
        self.source = source

    # -- setup -----------------------------------------------------------------

    def init_state(self, hypergraph: Hypergraph) -> AlgorithmState:
        check_source(self.source, hypergraph)
        nv, nh = hypergraph.num_vertices, hypergraph.num_hyperedges
        state = AlgorithmState(
            vertex_values=np.full(nv, np.inf),  # forward: distance
            hyperedge_values=np.full(nh, np.inf),
            frontier_v=Frontier(nv, [self.source]),
            frontier_e=Frontier(nh),
        )
        state.vertex_values[self.source] = 0.0
        state.extras.update(
            mode=_FORWARD,
            sigma_v=np.zeros(nv),
            sigma_e=np.zeros(nh),
            delta_v=np.zeros(nv),
            delta_e=np.zeros(nh),
            levels=[("vertex", np.array([self.source]))],
            backward_index=-1,
        )
        state.extras["sigma_v"][self.source] = 1.0
        return state

    # -- update functions --------------------------------------------------------

    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Update:
        dist_src, dist_dst = state.sides(phase)
        if state.extras["mode"] == _FORWARD:
            sigma_src, sigma_dst = state.sides(phase, "sigma_v", "sigma_e")

            def forward(src: int, dst: int) -> bool:
                dist = dist_src[src]
                if dist_dst[dst] == np.inf:
                    dist_dst[dst] = dist + 1.0
                if dist_dst[dst] == dist + 1.0:
                    sigma_dst[dst] += sigma_src[src]
                    return True
                return False

            return forward
        sigma_v, sigma_e = state.mirror("sigma_v"), state.mirror("sigma_e")
        delta_v, delta_e = state.mirror("delta_v"), state.mirror("delta_e")
        if phase == PHASE_HYPEREDGE:

            def backward_h(v: int, h: int) -> bool:
                # Vertex v at level L pushes dependency to hyperedge
                # predecessors at level L-1.  v is a real endpoint: +1.
                if dist_dst[h] == dist_src[v] - 1.0:
                    delta_e[h] += (sigma_e[h] / sigma_v[v]) * (1.0 + delta_v[v])
                return False

            return backward_h

        def backward_v(h: int, v: int) -> bool:
            # Hyperedge h pushes dependency to vertex predecessors; h is not
            # an endpoint, so no +1 term.
            if dist_dst[v] == dist_src[h] - 1.0:
                delta_v[v] += (sigma_v[v] / sigma_e[h]) * delta_e[h]
            return False

        return backward_v

    # -- level bookkeeping ----------------------------------------------------

    def _backward_frontiers(
        self, state: AlgorithmState, hypergraph: Hypergraph
    ) -> tuple[Frontier, Frontier]:
        """Frontiers holding the next backward level (one side non-empty)."""
        x = state.extras
        frontier_v = Frontier(hypergraph.num_vertices)
        frontier_e = Frontier(hypergraph.num_hyperedges)
        index = x["backward_index"]
        if index <= 0:  # level 0 is the source; nothing flows above it
            return frontier_v, frontier_e
        side, ids = x["levels"][index]
        target = frontier_v if side == "vertex" else frontier_e
        for element in ids:
            target.add(int(element))
        return frontier_v, frontier_e

    def end_phase(
        self,
        state: AlgorithmState,
        hypergraph: Hypergraph,
        phase: str,
        activated: Frontier,
    ) -> Frontier:
        x = state.extras
        if x["mode"] == _FORWARD:
            if not activated.is_empty():
                side = "hyperedge" if phase == PHASE_HYPEREDGE else "vertex"
                x["levels"].append((side, activated.ids()))
                return activated
            # Forward exhausted after a vertex phase: pivot to backward.
            if phase == PHASE_HYPEREDGE:
                return activated
            x["mode"] = _BACKWARD
            x["backward_index"] = len(x["levels"]) - 1
            frontier_v, frontier_e = self._backward_frontiers(state, hypergraph)
            state.frontier_e = frontier_e
            return frontier_v
        # Backward mode: a vertex level is consumed by the hyperedge phase
        # (vertices push dependency into hyperedges) and a hyperedge level by
        # the vertex phase; descend one level only when that happened.
        index = x["backward_index"]
        if index > 0:
            side = x["levels"][index][0]
            consumed = (phase == PHASE_HYPEREDGE and side == "vertex") or (
                phase != PHASE_HYPEREDGE and side == "hyperedge"
            )
            if consumed:
                x["backward_index"] -= 1
        frontier_v, frontier_e = self._backward_frontiers(state, hypergraph)
        if phase == PHASE_HYPEREDGE:
            state.frontier_v = frontier_v  # not read until next iteration
            return frontier_e
        state.frontier_e = frontier_e
        return frontier_v

    def finished(
        self, state: AlgorithmState, hypergraph: Hypergraph, iteration: int
    ) -> bool:
        x = state.extras
        return x["mode"] == _BACKWARD and x["backward_index"] <= 0

    def result(self, state: AlgorithmState, hypergraph: Hypergraph) -> np.ndarray:
        return state.extras["delta_v"]
