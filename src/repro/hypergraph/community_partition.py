"""Overlap-aware partitioning (extension of §IV-B's partitioning hook).

The GLA model is "compatible and flexible with other partitioning methods"
— chunks are contiguous id ranges, so *renumbering* elements is how any
partitioner plugs in.  The default contiguous chunking slices ids
arbitrarily, splitting overlap clusters across cores; each per-chunk OAG
then sees only a 1/num_chunks sliver of every cluster.

This module renumbers a side's elements along **global** chains (a single
full-hypergraph OAG walk, no depth cap), so overlap clusters occupy
contiguous id ranges and land inside one chunk.  The pipeline stage
``overlap-renumber`` runs it in front of the engine, and the
``ablation_partitioning`` figure measures the effect: chunk OAGs get
denser, chains longer, and ChGraph faster — at the price of a more
expensive preprocessing pass (the full OAG instead of per-chunk ones).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.chain import ChainGenerator
from repro.core.oag import build_oag
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.reorder import apply_vertex_permutation

__all__ = ["PartitionedHypergraph", "overlap_aware_renumber"]


@dataclasses.dataclass(frozen=True)
class PartitionedHypergraph:
    """A renumbered hypergraph plus the permutations that produced it.

    ``hyperedge_perm[old_id] = new_id`` (identity when the side was not
    renumbered), likewise ``vertex_perm``.  As a pipeline stage, the
    runner maps results computed on the renumbered hypergraph back to the
    original vertex ids through ``vertex_perm``.
    """

    hypergraph: Hypergraph
    hyperedge_perm: np.ndarray
    vertex_perm: np.ndarray


def _chain_permutation(hypergraph: Hypergraph, side: str, w_min: int) -> np.ndarray:
    """old id -> new id, following one global chain decomposition."""
    universe = (
        hypergraph.num_hyperedges if side == "hyperedge" else hypergraph.num_vertices
    )
    oag = build_oag(hypergraph, side, w_min=w_min)
    # No depth cap: the goal is long contiguous clusters, not hardware
    # stack fidelity (this runs at preprocessing time on the host).
    generator = ChainGenerator(d_max=max(universe, 1))
    chains = generator.generate(np.ones(universe, dtype=bool), oag)
    perm = np.empty(universe, dtype=np.int64)
    for new_id, old_id in enumerate(chains.order()):
        perm[old_id] = new_id
    return perm


def overlap_aware_renumber(
    hypergraph: Hypergraph,
    side: str = "both",
    w_min: int = 1,
) -> PartitionedHypergraph:
    """Renumber ``side`` ("hyperedge", "vertex" or "both") along chains."""
    if side not in ("hyperedge", "vertex", "both"):
        raise ValueError(f"unknown side {side!r}")

    hyperedge_perm = np.arange(hypergraph.num_hyperedges, dtype=np.int64)
    vertex_perm = np.arange(hypergraph.num_vertices, dtype=np.int64)
    current = hypergraph

    if side in ("hyperedge", "both"):
        hyperedge_perm = _chain_permutation(current, "hyperedge", w_min)
        members = [None] * current.num_hyperedges
        for old_id in range(current.num_hyperedges):
            members[int(hyperedge_perm[old_id])] = [
                int(v) for v in current.incident_vertices(old_id)
            ]
        current = Hypergraph.from_hyperedge_lists(
            members, num_vertices=current.num_vertices,
            name=current.name + "+part",
        )

    if side in ("vertex", "both"):
        vertex_perm = _chain_permutation(current, "vertex", w_min)
        current = apply_vertex_permutation(current, vertex_perm)

    return PartitionedHypergraph(
        hypergraph=current,
        hyperedge_perm=hyperedge_perm,
        vertex_perm=vertex_perm,
    )
