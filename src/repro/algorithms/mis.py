"""Maximal independent set on a hypergraph (Luby-style).

Independence uses the paper's overlap notion for vertices: two vertices are
adjacent iff some hyperedge contains both (the clique expansion).  Each
round, an undecided vertex enters the set when its random priority is the
minimum among undecided vertices in *every* hyperedge containing it; its
clique neighbors are then excluded.  This is Luby's algorithm executed
through the bipartite structure, so the result is a *maximal* independent
set of the clique expansion.

Determinism: priorities come from a seeded generator, so every engine
produces the identical set.
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

__all__ = ["MaximalIndependentSet", "UNDECIDED", "IN_SET", "EXCLUDED"]

UNDECIDED = 0.0
IN_SET = 1.0
EXCLUDED = 2.0


class MaximalIndependentSet(HypergraphAlgorithm):
    """Luby MIS over the hypergraph's clique expansion."""

    name = "MIS"
    apply_cost_factor = 0.9
    max_iterations = 200  # safety net; Luby terminates in O(log n) rounds

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed

    def init_state(self, hypergraph: Hypergraph) -> AlgorithmState:
        rng = np.random.default_rng(self.seed)
        priorities = rng.permutation(hypergraph.num_vertices).astype(np.float64)
        state = AlgorithmState(
            vertex_values=np.full(hypergraph.num_vertices, UNDECIDED),
            hyperedge_values=np.full(hypergraph.num_hyperedges, np.inf),
            frontier_v=Frontier.all_active(hypergraph.num_vertices),
            frontier_e=Frontier(hypergraph.num_hyperedges),
        )
        state.extras["priority"] = priorities
        state.extras["vertex_min"] = np.full(hypergraph.num_vertices, np.inf)
        return state

    def begin_phase(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> None:
        if phase == PHASE_HYPEREDGE:
            # Each round recomputes per-hyperedge minima among undecided.
            state.hyperedge_values[:] = np.inf
        else:
            state.extras["vertex_min"][:] = np.inf

    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Update:
        status = state.mirror("vertex_values")
        minima = state.mirror("hyperedge_values")
        if phase == PHASE_HYPEREDGE:
            priorities = state.mirror("priority")

            def apply_h(v: int, h: int) -> bool:
                if status[v] != UNDECIDED:
                    return False
                priority = priorities[v]
                if priority < minima[h]:
                    minima[h] = priority
                return True

            return apply_h
        vertex_min = state.mirror("vertex_min")

        def apply_v(h: int, v: int) -> bool:
            if status[v] != UNDECIDED:
                return False
            minimum = minima[h]
            if minimum < vertex_min[v]:
                vertex_min[v] = minimum
            return True

        return apply_v

    def end_phase(
        self,
        state: AlgorithmState,
        hypergraph: Hypergraph,
        phase: str,
        activated: Frontier,
    ) -> Frontier:
        if phase == PHASE_HYPEREDGE:
            return activated
        # Decision step: an undecided vertex whose priority equals the min of
        # every containing hyperedge joins the set.
        priorities = state.extras["priority"]
        vertex_min = state.extras["vertex_min"]
        undecided = state.vertex_values == UNDECIDED
        winners = undecided & (priorities <= vertex_min)
        # Isolated vertices (no hyperedges) are trivially independent.
        winners |= undecided & (np.diff(hypergraph.vertices.offsets) == 0)
        state.vertex_values[winners] = IN_SET
        # Exclude clique neighbors of winners.
        for v in np.flatnonzero(winners):
            for h in hypergraph.incident_hyperedges(int(v)):
                for u in hypergraph.incident_vertices(int(h)):
                    if state.vertex_values[u] == UNDECIDED:
                        state.vertex_values[u] = EXCLUDED
        remaining = np.flatnonzero(state.vertex_values == UNDECIDED)
        return Frontier(hypergraph.num_vertices, remaining)

    def finished(
        self, state: AlgorithmState, hypergraph: Hypergraph, iteration: int
    ) -> bool:
        return not np.any(state.vertex_values == UNDECIDED)
