"""Ordinary-graph applications over 2-uniform hypergraphs (§VI-I, Fig 25).

The paper demonstrates ChGraph's generality on conventional graphs by
treating each edge as a hyperedge with exactly two members.  Two apps are
evaluated: SSSP and Adsorption (a label-propagation style algorithm).
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

__all__ = ["Sssp", "Adsorption"]


class Sssp(HypergraphAlgorithm):
    """Single-source shortest paths (Bellman-Ford style relaxation).

    On a 2-uniform hypergraph a hyperedge relaxes to ``min`` of its two
    endpoints plus its weight; the formulation generalises to arbitrary
    hyperedges (crossing hyperedge ``h`` costs ``weights[h]``, default 1).
    ``weights`` must be non-negative for the frontier relaxation to
    terminate at the true shortest distances.
    """

    name = "SSSP"

    def __init__(self, source: int = 0, weights=None) -> None:
        self.source = source
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.size and weights.min() < 0:
                raise ValueError("SSSP requires non-negative hyperedge weights")
        self.weights = weights

    def init_state(self, hypergraph: Hypergraph) -> AlgorithmState:
        check_source(self.source, hypergraph)
        nh = hypergraph.num_hyperedges
        # A copy: the state flushes its mirrors into its own arrays.
        weights = np.ones(nh) if self.weights is None else self.weights.copy()
        if weights.size != nh:
            raise ValueError(
                f"weights cover {weights.size} hyperedges, hypergraph has {nh}"
            )
        vertex_values = np.full(hypergraph.num_vertices, np.inf)
        vertex_values[self.source] = 0.0
        return AlgorithmState(
            vertex_values=vertex_values,
            hyperedge_values=np.full(nh, np.inf),
            frontier_v=Frontier(hypergraph.num_vertices, [self.source]),
            frontier_e=Frontier(nh),
            extras={"weights": weights},
        )

    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Update:
        src_values, dst_values = state.sides(phase)
        if phase == PHASE_HYPEREDGE:
            weights = state.mirror("weights")

            def apply_h(v: int, h: int) -> bool:
                candidate = src_values[v] + weights[h]
                if candidate < dst_values[h]:
                    dst_values[h] = candidate
                    return True
                return False

            return apply_h

        def apply_v(h: int, v: int) -> bool:
            candidate = src_values[h]
            if candidate < dst_values[v]:
                dst_values[v] = candidate
                return True
            return False

        return apply_v


class Adsorption(HypergraphAlgorithm):
    """Adsorption-style label propagation with fixed iterations.

    Each vertex blends its injected seed score with the average score of its
    incident (hyper)edges: ``v = beta * seed_v + (1 - beta) * avg_h(h)``,
    where ``h = avg_v(v)`` over its members.  Dense frontier, like PR.
    """

    name = "Adsorption"
    dense_frontier = True
    # Degrees ride in the same record as the value (Hygra packs them), so
    # degree lookups add no memory traffic beyond the value access.

    def __init__(self, iterations: int = 10, beta: float = 0.2, seed: int = 9) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.max_iterations = iterations
        self.beta = beta
        self.seed = seed

    def init_state(self, hypergraph: Hypergraph) -> AlgorithmState:
        rng = np.random.default_rng(self.seed)
        seeds = rng.random(hypergraph.num_vertices)
        state = AlgorithmState(
            vertex_values=seeds.copy(),
            hyperedge_values=np.zeros(hypergraph.num_hyperedges),
            frontier_v=Frontier.all_active(hypergraph.num_vertices),
            frontier_e=Frontier(hypergraph.num_hyperedges),
        )
        state.extras["seeds"] = seeds
        return state

    def begin_phase(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> None:
        if phase == PHASE_HYPEREDGE:
            state.hyperedge_values[:] = 0.0
        else:
            state.vertex_values[:] = 0.0

    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Update:
        src_values, dst_values = state.sides(phase)
        if phase == PHASE_HYPEREDGE:
            hdeg = hypergraph.hyperedges.degrees_list()

            def apply_h(v: int, h: int) -> bool:
                dst_values[h] += src_values[v] / hdeg[h]
                return True

            return apply_h
        vdeg = hypergraph.vertices.degrees_list()
        keep = 1.0 - self.beta

        def apply_v(h: int, v: int) -> bool:
            share = src_values[h] / vdeg[v]
            dst_values[v] += keep * share
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
            return Frontier.all_active(hypergraph.num_hyperedges)
        seeds = state.extras["seeds"]
        state.vertex_values += self.beta * seeds
        isolated = np.diff(hypergraph.vertices.offsets) == 0
        if isolated.any():
            state.vertex_values[isolated] = seeds[isolated]
        return Frontier.all_active(hypergraph.num_vertices)
