"""k-core decomposition by iterative peeling.

Computes the *coreness* of every vertex: round ``k`` repeatedly removes
vertices whose remaining degree (count of surviving incident hyperedges) is
below ``k``; a hyperedge dies when fewer than two of its members survive.
A vertex removed during round ``k`` has coreness ``k - 1``.

The cascade maps directly onto the two phases: dying vertices shrink their
hyperedges (HF), dying hyperedges shrink their members' degrees (VF).  When
a round's cascade drains, ``end_phase`` bumps ``k`` and re-seeds the vertex
frontier from the survivors.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    PHASE_HYPEREDGE,
    AlgorithmState,
    HypergraphAlgorithm,
    Update,
)
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["KCore"]


class KCore(HypergraphAlgorithm):
    """Peeling k-core decomposition; result is per-vertex coreness."""

    name = "k-core"
    apply_cost_factor = 0.8
    max_iterations = 100_000  # safety net; bounded by sum of degrees

    def init_state(self, hypergraph: Hypergraph) -> AlgorithmState:
        nv, nh = hypergraph.num_vertices, hypergraph.num_hyperedges
        size_h = np.diff(hypergraph.hyperedges.offsets).astype(np.float64)
        alive_e = size_h >= 2  # degenerate hyperedges never connect
        # A vertex's peeling degree counts only connecting hyperedges.
        degree_v = np.zeros(nv, dtype=np.float64)
        for h in np.flatnonzero(alive_e):
            degree_v[hypergraph.incident_vertices(int(h))] += 1.0
        state = AlgorithmState(
            vertex_values=np.full(nv, -1.0),  # coreness, -1 while alive
            hyperedge_values=size_h.copy(),  # surviving member count
            frontier_v=Frontier(nv),
            frontier_e=Frontier(nh),
        )
        state.extras.update(
            k=1,
            degree=degree_v,
            alive_v=np.ones(nv, dtype=bool),
            alive_e=alive_e,
        )
        state.frontier_v = self._seed(state)
        return state

    def _seed(self, state: AlgorithmState) -> Frontier:
        """Vertices that die in the current round ``k``."""
        x = state.extras
        doomed = np.flatnonzero(x["alive_v"] & (x["degree"] < x["k"]))
        return Frontier(x["alive_v"].size, doomed)

    def begin_phase(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> None:
        x = state.extras
        if phase == PHASE_HYPEREDGE:
            # The active vertices die now; record their coreness.
            dying = state.frontier_v.ids()
            x["alive_v"][dying] = False
            state.vertex_values[dying] = x["k"] - 1
        else:
            # The active hyperedges die now.
            x["alive_e"][state.frontier_e.ids()] = False

    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Update:
        if phase == PHASE_HYPEREDGE:
            alive = state.mirror("alive_e")
            count = state.mirror("hyperedge_values")
            threshold = 2.0
        else:
            alive = state.mirror("alive_v")
            count = state.mirror("degree")
            threshold = state.extras["k"]

        def apply(src: int, dst: int) -> bool:
            if not alive[dst]:
                return False
            count[dst] -= 1.0
            return count[dst] < threshold

        return apply

    def end_phase(
        self,
        state: AlgorithmState,
        hypergraph: Hypergraph,
        phase: str,
        activated: Frontier,
    ) -> Frontier:
        x = state.extras
        if phase == PHASE_HYPEREDGE:
            return activated
        if not activated.is_empty():
            return activated
        # Round k's cascade is exhausted: advance k past the minimum
        # surviving degree and re-seed.
        alive_degrees = x["degree"][x["alive_v"]]
        if alive_degrees.size == 0:
            return activated  # everyone peeled; finished() will stop us
        x["k"] = max(x["k"] + 1, int(alive_degrees.min()) + 1)
        return self._seed(state)

    def finished(
        self, state: AlgorithmState, hypergraph: Hypergraph, iteration: int
    ) -> bool:
        return not state.extras["alive_v"].any()
