"""Overlap-aware abstraction graph (OAG) construction (Definition 1, §IV-A).

Given a hypergraph, the hyperedge OAG (H-OAG) is a weighted undirected graph
with one node per hyperedge; an edge connects two hyperedges that overlap and
its weight is ``|N(h) ∩ N(h')|``.  Edges with weight below ``W_min`` are
pruned ("discarding those unimportant edges that improve little locality").
The vertex OAG (V-OAG) is symmetric.

The OAG is stored in CSR form with each node's neighbor list sorted in
*descending weight order* — the paper does this precisely to avoid sorting
during chain generation (§IV-B: "we enforce to store the CSR-based edges of
each vertex in a descending order according to their weights").

Construction is vectorized: it bins every pivot row's elements into
``(row, chunk)`` segments, counts their co-occurring pairs in both
directions with one sparse matrix product (or a NumPy expand-and-
``np.unique`` pipeline without scipy), and emits every chunk's CSR from
one stable argsort.  ``scipy`` is imported by the first build
(:func:`sparse_backend`), not by ``import repro``: most processes never
build an OAG.  The original per-element scalar counter is the parity
oracle under ``tests/core/``; ``tests/core/test_fast_parity.py`` holds
both to bit-identical CSRs (offsets, indices, weights) and identical
``build_operations`` counts, so Figure 21(a)'s preprocessing-cost
reporting is the scalar walk's.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.hypergraph.csr import Csr
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk
from repro.records import Record

__all__ = ["Oag", "build_oag", "build_chunk_oags", "sparse_backend", "DEFAULT_W_MIN"]

#: The paper's empirical sweet spot (§IV-A): "in this work we empirically
#: set W_min = 3".  The scaled datasets keep paper-scale hyperedge degrees
#: (45-58), so overlap weights are in the paper's range and the same
#: threshold applies.
DEFAULT_W_MIN = 3

_UNRESOLVED = object()
#: The SpGEMM backend: ``scipy.sparse`` once :func:`sparse_backend` has run,
#: ``None`` when scipy is missing (the numpy fallback then counts pairs).
_sparse: Any = _UNRESOLVED


def sparse_backend() -> Any:
    """``scipy.sparse``, imported on the first call; ``None`` without scipy.

    Only OAG builds need it, so ``import repro`` does not pay the import.
    Code that forks workers which build OAGs calls this first, so the
    workers inherit the module instead of each importing it.  The handle
    is resolved once: a ``None`` set in its place (as the parity tests do to
    force the fallback) stays ``None``.
    """
    global _sparse
    if _sparse is _UNRESOLVED:
        try:
            from scipy import sparse
        except ImportError:
            sparse = None
        _sparse = sparse
    return _sparse


@dataclasses.dataclass(frozen=True)
class Oag(Record):
    """A weighted CSR over one side's elements, weight-descending per row.

    ``side`` is ``"hyperedge"`` (H-OAG, nodes are hyperedges) or ``"vertex"``
    (V-OAG).  ``first_id`` offsets node ids when the OAG covers a chunk:
    node ``n`` of this OAG is element ``first_id + n`` of the hypergraph.
    """

    side: str
    csr: Csr
    w_min: int
    first_id: int = 0
    build_operations: int = 0

    @property
    def num_nodes(self) -> int:
        return self.csr.num_rows

    @property
    def num_edges(self) -> int:
        """Directed edge slots; each undirected overlap pair stores two."""
        return self.csr.num_entries

    def neighbors(self, node: int) -> np.ndarray:
        return self.csr.neighbors(node)

    def weights(self, node: int) -> np.ndarray:
        return self.csr.neighbor_weights(node)

    def storage_bytes(self) -> int:
        """CSR footprint: 4-byte offsets, edges and weights (Figure 21(b))."""
        return 4 * (self.csr.offsets.size + 2 * self.csr.indices.size)

    def is_weight_descending(self) -> bool:
        """Invariant check: every row's weights are non-increasing.

        A weight-less CSR cannot exhibit the invariant at all — it is not a
        valid OAG payload — so it reports ``False`` rather than vacuous
        truth; callers use this method to certify that chain generation may
        rely on "first eligible neighbor is weight-maximal".
        """
        weights = self.csr.weights
        if weights is None:
            return False
        if weights.size < 2:
            return True
        # One pass over the flat weights: a rise w[i] < w[i+1] violates the
        # invariant unless position i+1 starts a new row.
        rises = np.diff(weights) > 0
        row_start = np.zeros(weights.size, dtype=bool)
        starts = self.csr.offsets[1:-1]
        row_start[starts[starts < weights.size]] = True
        return not bool(np.any(rises & ~row_start[1:]))


def _expand_pairs(
    vals: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All unordered within-segment pairs of ``vals``.

    ``vals`` is a concatenation of segments whose lengths are ``lens``; a
    segment of length ``d`` contributes its ``d * (d - 1) / 2`` element
    pairs.  Returns parallel ``(left, right)`` arrays where ``left`` sits
    earlier in its segment than ``right``.
    """
    empty = np.zeros(0, dtype=np.int64)
    if vals.size == 0:
        return empty, empty
    lens = lens.astype(np.int64, copy=False)
    # Element at segment position p of a length-d segment leads d - 1 - p
    # pairs, one per later element of the same segment.
    seg_len = np.repeat(lens, lens)
    starts = np.cumsum(lens) - lens
    pos = np.arange(vals.size, dtype=np.int64) - np.repeat(starts, lens)
    reps = seg_len - 1 - pos
    total = int(reps.sum())
    if total == 0:
        return empty, empty
    left = np.repeat(vals, reps)
    # The partner of pair k in lead element g's group is vals[g + 1 + k'],
    # with k' the offset inside the group; fold g + 1 - group_start into one
    # per-element constant so only a single large repeat is needed.
    shift = np.arange(vals.size, dtype=np.int64) + 1 - (np.cumsum(reps) - reps)
    right = vals[np.arange(total, dtype=np.int64) + np.repeat(shift, reps)]
    return left, right


def _pair_counts(
    vals: np.ndarray, segs: np.ndarray, num_segs: int, num_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Co-occurrence pairs of ``vals`` in both directions, with weights.

    ``vals[i]`` is an element id in ``[0, num_cols)`` that belongs to
    segment ``segs[i]``, in any order; a pair's weight is the number of
    segments containing both ids.  Returns ``(row, col, weight)`` for every
    pair with ``row != col``, sorted by ``(row, col)``.  Uses one sparse
    matrix product (the symmetric ``B.T @ B`` over the segment incidence)
    when scipy is available, else a numpy repeat/advanced-indexing pipeline.
    """
    sparse = sparse_backend()
    if sparse is not None:
        incidence = sparse.csr_matrix(
            (np.ones(vals.size, dtype=np.int64), (segs, vals)),
            shape=(num_segs, num_cols),
        )
        gram = (incidence.T @ incidence).tocsr()
        gram.sort_indices()
        coo = gram.tocoo()
        off_diagonal = coo.row != coo.col  # the diagonal holds degrees
        return (
            coo.row[off_diagonal].astype(np.int64),
            coo.col[off_diagonal].astype(np.int64),
            coo.data[off_diagonal].astype(np.int64),
        )
    order = np.argsort(segs, kind="stable")
    left, right = _expand_pairs(vals[order], np.bincount(segs, minlength=num_segs))
    span = np.int64(num_cols)
    keys, counts = np.unique(
        np.concatenate([left * span + right, right * span + left]),
        return_counts=True,
    )
    return keys // span, keys % span, counts.astype(np.int64)


def build_oag(
    hypergraph: Hypergraph,
    side: str,
    w_min: int = DEFAULT_W_MIN,
    chunk: Chunk | None = None,
) -> Oag:
    """Build the OAG for one side, optionally restricted to a chunk.

    A chunk OAG contains only nodes in the chunk and only edges between two
    chunk members: each chunk is processed by one core with its own OAG
    (§IV-B), so cross-chunk overlap is intentionally invisible.
    """
    if chunk is None:
        chunk = Chunk(0, 0, hypergraph.side(side).num_rows)
    return build_chunk_oags(hypergraph, side, [chunk], w_min)[0]


def build_chunk_oags(
    hypergraph: Hypergraph,
    side: str,
    chunks: list[Chunk],
    w_min: int = DEFAULT_W_MIN,
) -> list[Oag]:
    """One OAG per chunk (what each core's ChGraph engine is configured with).

    Built in a single pass over the pivot side.  For the hyperedge side,
    two hyperedges overlap once per shared vertex, so counting pairs over
    every vertex's incident-hyperedge list yields ``|N(h) ∩ N(h')|``.  Each
    pivot row's incident elements are binned by owning chunk into one
    ``(row, chunk)`` segment, so only same-chunk pairs are counted (an edge
    requires both endpoints inside the chunk); elements outside every chunk
    are dropped.  ``build_operations`` (Figure 21(a)) counts one operation
    per binned element and one per counted (pre-collapse) pair, split
    evenly across the chunks.
    """
    if side not in ("hyperedge", "vertex"):
        raise ValueError(f"unknown side {side!r}")
    if not chunks:
        return []
    pivot = hypergraph.vertices if side == "hyperedge" else hypergraph.hyperedges
    num_chunks = len(chunks)
    bounds = np.array(
        [chunk.first for chunk in chunks] + [chunks[-1].last], dtype=np.int64
    )
    universe = int(bounds[-1])
    chunk_of = np.searchsorted(bounds, pivot.indices, side="right") - 1
    inside = (chunk_of >= 0) & (chunk_of < num_chunks)
    pivot_rows = pivot.row_ids()
    vals = pivot.indices[inside]
    segs = pivot_rows[inside] * num_chunks + chunk_of[inside]
    num_segs = pivot.num_rows * num_chunks
    lens = np.bincount(segs, minlength=num_segs)
    operations = int(vals.size) + int((lens * (lens - 1) // 2).sum())

    row, col, weight = _pair_counts(vals, segs, num_segs, universe)
    keep = weight >= w_min
    row, col, weight = row[keep], col[keep], weight[keep]
    # One stable sort for every chunk: row-major, weight-descending within a
    # row; the (row, col) input order survives as the ascending-id tiebreak
    # — the scalar oracle's per-row sort key.
    top = int(weight.max()) + 1 if weight.size else 1
    order = np.argsort(row * top + (top - 1 - weight), kind="stable")
    col, weight = col[order], weight[order]
    # Row offsets over the whole id range.  Both endpoints of an edge share
    # a chunk, so each chunk's CSR is one slice of the flat arrays.
    offsets = np.zeros(universe + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=universe), out=offsets[1:])
    oags = []
    for chunk in chunks:
        a, b = offsets[chunk.first], offsets[chunk.last]
        oags.append(
            Oag(
                side=side,
                csr=Csr(
                    offsets[chunk.first : chunk.last + 1] - a,
                    col[a:b] - chunk.first,
                    weight[a:b],
                ),
                w_min=w_min,
                first_id=chunk.first,
                build_operations=operations // num_chunks,
            )
        )
    return oags
