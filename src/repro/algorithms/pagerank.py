"""Hypergraph PageRank, exactly the HF/VF of Algorithm 1 (Lines 15-21).

Each iteration: active vertices scatter ``vertex_value[v] / deg(v)`` into
their hyperedges (HF), then hyperedges scatter
``(1 - alpha) / (|V| * deg(v)) + alpha * hyperedge_value[h] / deg(h)`` back
into vertices (VF).  All vertices and hyperedges are active every iteration
— the property the paper leans on when noting PR's chains only need
generating once (§VI-B).
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

__all__ = ["PageRank"]


class PageRank(HypergraphAlgorithm):
    """Fixed-iteration hypergraph PageRank (the paper benchmarks 10)."""

    name = "PR"
    apply_cost_factor = 1.3
    dense_frontier = True
    # Degrees ride in the same record as the value (Hygra packs them), so
    # degree lookups add no memory traffic beyond the value access.

    def __init__(self, iterations: int = 10, alpha: float = 0.85) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.alpha = alpha
        self.max_iterations = iterations

    def init_state(self, hypergraph: Hypergraph) -> AlgorithmState:
        n = max(hypergraph.num_vertices, 1)
        return AlgorithmState(
            vertex_values=np.full(hypergraph.num_vertices, 1.0 / n),
            hyperedge_values=np.zeros(hypergraph.num_hyperedges),
            frontier_v=Frontier.all_active(hypergraph.num_vertices),
            frontier_e=Frontier(hypergraph.num_hyperedges),
        )

    def begin_phase(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> None:
        # Ranks are recomputed from scratch each phase: zero the side about
        # to be written before its phase accumulates contributions.
        # Isolated vertices receive none, so they keep their teleport mass.
        if phase == PHASE_HYPEREDGE:
            state.hyperedge_values[:] = 0.0
        else:
            state.vertex_values[np.diff(hypergraph.vertices.offsets) > 0] = 0.0

    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Update:
        src_values, dst_values = state.sides(phase)
        vdeg = hypergraph.vertices.degrees_list()
        if phase == PHASE_HYPEREDGE:

            def apply_h(v: int, h: int) -> bool:
                dst_values[h] += src_values[v] / vdeg[v]
                return True

            return apply_h
        hdeg = hypergraph.hyperedges.degrees_list()
        alpha = self.alpha
        teleport = 1.0 - alpha
        n = hypergraph.num_vertices

        def apply_v(h: int, v: int) -> bool:
            addend = teleport / (n * vdeg[v])
            dst_values[v] += addend + (alpha * src_values[h] / hdeg[h])
            return True

        return apply_v

    def end_phase(
        self,
        state: AlgorithmState,
        hypergraph: Hypergraph,
        phase: str,
        activated: Frontier,
    ) -> Frontier:
        # PR is dense: every element stays active every iteration.
        if phase == PHASE_HYPEREDGE:
            return Frontier.all_active(hypergraph.num_hyperedges)
        return Frontier.all_active(hypergraph.num_vertices)
