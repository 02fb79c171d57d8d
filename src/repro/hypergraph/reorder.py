"""Spatial-locality reordering (§VI-H, Figure 24).

The paper compares ChGraph against "a reordering technique that assigns
incident vertices of each hyperedge with close-by IDs".  This module
implements that technique: a BFS-like renumbering over the bipartite
structure so that vertices co-appearing in hyperedges receive adjacent ids,
plus the bookkeeping to apply / invert a permutation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.hypergraph.csr import Csr
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["Reordering", "locality_reorder", "apply_vertex_permutation"]


@dataclasses.dataclass(frozen=True)
class Reordering:
    """A reordered hypergraph with the permutation that produced it.

    ``vertex_perm[old_id] = new_id``.  ``cost_accesses`` approximates the
    reordering pass's own memory traffic (it must scan every bipartite edge
    and rewrite both CSR directions), which Figure 24 charges against the
    technique.  ``inverse_perm`` (``inverse_perm[new_id] = old_id``) is
    precomputed once so :meth:`original_vertex` is O(1) per lookup.
    """

    hypergraph: Hypergraph
    vertex_perm: np.ndarray
    cost_accesses: int
    inverse_perm: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        inverse = np.empty_like(self.vertex_perm)
        inverse[self.vertex_perm] = np.arange(
            len(self.vertex_perm), dtype=self.vertex_perm.dtype
        )
        object.__setattr__(self, "inverse_perm", inverse)

    def original_vertex(self, new_id: int) -> int:
        return int(self.inverse_perm[new_id])


def apply_vertex_permutation(
    hypergraph: Hypergraph, vertex_perm: np.ndarray
) -> Hypergraph:
    """Renumber vertices by ``vertex_perm`` (old id -> new id).

    Each hyperedge lists its renamed members in ascending order and the
    vertex side is its transpose, as :meth:`Hypergraph.from_hyperedge_lists`
    builds them.  ``vertex_perm`` is a bijection and a hyperedge never lists
    a vertex twice (the list constructor dedups, the generators draw
    distinct members), so a renamed row needs no dedup either.
    """
    hyperedges = hypergraph.hyperedges
    renamed = Csr(
        hyperedges.offsets, np.asarray(vertex_perm, dtype=np.int64)[hyperedges.indices]
    )
    # A transpose lists each row's sources in ascending order, so the
    # transpose of the vertex side sorts every hyperedge's renamed members.
    vertices = renamed.transpose(num_cols=hypergraph.num_vertices)
    return Hypergraph(
        vertices.transpose(num_cols=hypergraph.num_hyperedges),
        vertices,
        name=hypergraph.name + "+reord",
    )


def locality_reorder(hypergraph: Hypergraph) -> Reordering:
    """BFS renumbering: members of the same hyperedge get close-by new ids."""
    num_vertices = hypergraph.num_vertices
    # The walk turns each row into a plain list when it reaches it, and it
    # reaches each row once: a list index costs several times less than a
    # numpy scalar index, and no list copy of a whole CSR is held.
    vertex_offsets = hypergraph.vertices.offsets.tolist()
    vertex_edges = hypergraph.vertices.indices
    hyperedge_offsets = hypergraph.hyperedges.offsets.tolist()
    hyperedge_members = hypergraph.hyperedges.indices
    perm = [-1] * num_vertices
    visited = [False] * hypergraph.num_hyperedges
    next_id = 0

    for seed in range(num_vertices):
        if perm[seed] >= 0:
            continue
        perm[seed] = next_id
        next_id += 1
        # A FIFO queue: the loop also visits the vertices appended to it.
        queue = [seed]
        for v in queue:
            edges = vertex_edges[vertex_offsets[v] : vertex_offsets[v + 1]]
            for h in edges.tolist():
                if visited[h]:
                    continue
                visited[h] = True
                members = hyperedge_members[
                    hyperedge_offsets[h] : hyperedge_offsets[h + 1]
                ]
                for u in members.tolist():
                    if perm[u] < 0:
                        perm[u] = next_id
                        next_id += 1
                        queue.append(u)

    vertex_perm = np.array(perm, dtype=np.int64)
    reordered = apply_vertex_permutation(hypergraph, vertex_perm)
    # Reordering reads every bipartite edge twice (discover + rewrite) and
    # writes both CSR directions; that traffic is the technique's overhead.
    cost = 4 * hypergraph.num_bipartite_edges + 2 * num_vertices
    return Reordering(
        hypergraph=reordered, vertex_perm=vertex_perm, cost_accesses=cost
    )
