"""The reference locality reorder: the oracle for :mod:`repro.hypergraph.reorder`.

The original :func:`~repro.hypergraph.reorder.locality_reorder` and
:func:`~repro.hypergraph.reorder.apply_vertex_permutation`, kept verbatim:
a BFS over numpy scalar indexing and a renumbering that rebuilds the
hypergraph through :meth:`Hypergraph.from_hyperedge_lists`.  The production
walk runs over plain lists and renames with array operations;
``tests/hypergraph/test_reorder.py`` holds both to the same permutation,
cost and CSRs.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.reorder import Reordering

__all__ = ["apply_vertex_permutation", "locality_reorder"]


def apply_vertex_permutation(
    hypergraph: Hypergraph, vertex_perm: np.ndarray
) -> Hypergraph:
    """Renumber vertices by ``vertex_perm`` (old id -> new id)."""
    renamed = [
        sorted(int(vertex_perm[v]) for v in hypergraph.incident_vertices(h))
        for h in range(hypergraph.num_hyperedges)
    ]
    return Hypergraph.from_hyperedge_lists(
        renamed, num_vertices=hypergraph.num_vertices, name=hypergraph.name + "+reord"
    )


def locality_reorder(hypergraph: Hypergraph) -> Reordering:
    """BFS renumbering: members of the same hyperedge get close-by new ids."""
    num_vertices = hypergraph.num_vertices
    vertex_perm = np.full(num_vertices, -1, dtype=np.int64)
    next_id = 0
    visited_hyperedges = np.zeros(hypergraph.num_hyperedges, dtype=bool)

    for seed in range(num_vertices):
        if vertex_perm[seed] >= 0:
            continue
        queue: deque[int] = deque([seed])
        vertex_perm[seed] = next_id
        next_id += 1
        while queue:
            v = queue.popleft()
            for h in hypergraph.incident_hyperedges(v):
                if visited_hyperedges[h]:
                    continue
                visited_hyperedges[h] = True
                for u in hypergraph.incident_vertices(int(h)):
                    if vertex_perm[u] < 0:
                        vertex_perm[u] = next_id
                        next_id += 1
                        queue.append(int(u))

    reordered = apply_vertex_permutation(hypergraph, vertex_perm)
    # Reordering reads every bipartite edge twice (discover + rewrite) and
    # writes both CSR directions; that traffic is the technique's overhead.
    cost = 4 * hypergraph.num_bipartite_edges + 2 * num_vertices
    return Reordering(
        hypergraph=reordered, vertex_perm=vertex_perm, cost_accesses=cost
    )
