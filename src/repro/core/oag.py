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

The builder is vectorized: it counts every pivot row's co-occurring pairs
with one sparse matrix product (or a NumPy expand-and-``np.unique``
pipeline without scipy) and emits the CSR with one lexsort.  ``scipy``
is imported by the first build (:func:`sparse_backend`), not by
``import repro``: most processes never build an OAG.  The original
per-element scalar counter is the parity oracle under ``tests/core/``;
``tests/core/test_fast_parity.py`` holds both to bit-identical CSRs
(offsets, indices, weights) and identical ``build_operations`` counts, so
Figure 21(a)'s preprocessing-cost reporting is the scalar walk's.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.hypergraph.csr import Csr
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk

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
class Oag:
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


def _unique_pair_counts(
    vals: np.ndarray, lens: np.ndarray, num_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique co-occurrence pairs of ``vals`` with their multiplicities.

    ``vals`` holds element ids in ``[0, num_cols)`` concatenated per
    segment; a pair's weight is the number of segments containing both ids.
    Returns ``(lo, hi, weight)`` with ``lo < hi``, sorted by ``(lo, hi)``.
    Uses one sparse matrix product (``B.T @ B`` over the segment incidence)
    when scipy is available, else a numpy repeat/advanced-indexing pipeline.
    """
    empty = np.zeros(0, dtype=np.int64)
    if vals.size == 0 or num_cols == 0:
        return empty, empty, empty
    sparse = sparse_backend()
    if sparse is not None:
        lens = lens.astype(np.int64, copy=False)
        indptr = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        incidence = sparse.csr_matrix(
            (np.ones(vals.size, dtype=np.int64), vals, indptr),
            shape=(lens.size, num_cols),
        )
        gram = (incidence.T @ incidence).tocsr()
        gram.sort_indices()
        coo = gram.tocoo()
        upper = coo.row < coo.col  # drop the degree diagonal + mirror half
        return (
            coo.row[upper].astype(np.int64),
            coo.col[upper].astype(np.int64),
            coo.data[upper].astype(np.int64),
        )
    left, right = _expand_pairs(vals, lens)
    if left.size == 0:
        return empty, empty, empty
    lo = np.minimum(left, right)
    hi = np.maximum(left, right)
    span = np.int64(num_cols)
    keys, counts = np.unique(lo * span + hi, return_counts=True)
    return keys // span, keys % span, counts.astype(np.int64)


def _pairs_to_csr(
    lo: np.ndarray,
    hi: np.ndarray,
    weights: np.ndarray,
    w_min: int,
    first_id: int,
    num_nodes: int,
) -> Csr:
    """Emit the weight-descending CSR for one node range from pair arrays."""
    keep = weights >= w_min
    lo = lo[keep] - first_id
    hi = hi[keep] - first_id
    kept = weights[keep]
    # Each undirected overlap stores two directed slots.
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    flat_weights = np.concatenate([kept, kept])
    # Row-major, weight-descending within a row, ascending id tiebreak —
    # the scalar oracle's per-row sort key.
    order = np.lexsort((cols, -flat_weights, rows))
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    if rows.size:
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=offsets[1:])
    return Csr(offsets, cols[order], flat_weights[order])


def _overlap_pairs(
    hypergraph: Hypergraph, side: str, first_id: int, last_id: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Overlap pairs among elements in ``[first_id, last_id)``.

    For the hyperedge side, two hyperedges overlap once per shared vertex,
    so counting co-occurrences over every vertex's incident-hyperedge list
    yields exactly ``|N(h) ∩ N(h')|``.  Returns the unique pairs with their
    weights, plus the number of elementary counting operations (Figure
    21(a)): one per incident element in range, one per counted
    (pre-collapse) pair.
    """
    pivot = hypergraph.vertices if side == "hyperedge" else hypergraph.hyperedges
    indices = pivot.indices
    degrees = np.diff(pivot.offsets)
    universe = (
        hypergraph.num_hyperedges if side == "hyperedge" else hypergraph.num_vertices
    )
    if first_id == 0 and last_id == universe:
        vals = indices
        lens = degrees
    else:
        keep = (indices >= first_id) & (indices < last_id)
        vals = indices[keep]
        row_ids = np.repeat(np.arange(pivot.num_rows, dtype=np.int64), degrees)
        lens = np.bincount(row_ids[keep], minlength=pivot.num_rows)
    operations = int(vals.size) + int((lens * (lens - 1) // 2).sum())
    lo, hi, weights = _unique_pair_counts(vals, lens, last_id)
    return lo, hi, weights, operations


def _chunk_overlap_pairs(
    hypergraph: Hypergraph, side: str, chunks: list[Chunk]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One-pass pair counting restricted to same-chunk pairs.

    Returns unique ``(lo, hi, weight)`` arrays sorted by ``lo`` (so chunk
    ranges are contiguous) and the operation count of
    :func:`_overlap_pairs`, summed over the ``(row, chunk)`` segments.
    """
    pivot = hypergraph.vertices if side == "hyperedge" else hypergraph.hyperedges
    indices = pivot.indices
    degrees = np.diff(pivot.offsets)
    bounds = np.array(
        [chunk.first for chunk in chunks] + [chunks[-1].last], dtype=np.int64
    )
    row_ids = np.repeat(np.arange(pivot.num_rows, dtype=np.int64), degrees)
    # Sort by (pivot row, element id) so each (row, chunk) run is contiguous;
    # pair membership is order-independent, so the reorder is harmless.
    order = np.lexsort((indices, row_ids))
    vals = indices[order]
    rows = row_ids[order]
    if vals.size:
        chunk_of = np.searchsorted(bounds, vals, side="right") - 1
        new_seg = np.empty(vals.size, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = (rows[1:] != rows[:-1]) | (chunk_of[1:] != chunk_of[:-1])
        seg_starts = np.flatnonzero(new_seg)
        lens = np.diff(np.append(seg_starts, vals.size))
    else:
        lens = np.zeros(0, dtype=np.int64)
    operations = int(vals.size) + int((lens * (lens - 1) // 2).sum())
    lo, hi, weights = _unique_pair_counts(vals, lens, int(bounds[-1]))
    return lo, hi, weights, operations


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
    if side not in ("hyperedge", "vertex"):
        raise ValueError(f"unknown side {side!r}")
    universe = (
        hypergraph.num_hyperedges if side == "hyperedge" else hypergraph.num_vertices
    )
    first_id = chunk.first if chunk is not None else 0
    last_id = chunk.last if chunk is not None else universe
    lo, hi, weights, operations = _overlap_pairs(hypergraph, side, first_id, last_id)
    return Oag(
        side=side,
        csr=_pairs_to_csr(lo, hi, weights, w_min, first_id, last_id - first_id),
        w_min=w_min,
        first_id=first_id,
        build_operations=operations,
    )


def build_chunk_oags(
    hypergraph: Hypergraph,
    side: str,
    chunks: list[Chunk],
    w_min: int = DEFAULT_W_MIN,
) -> list[Oag]:
    """One OAG per chunk (what each core's ChGraph engine is configured with).

    Built in a single pass over the pivot side: each pivot row's incident
    elements are binned by owning chunk and only same-chunk pairs counted,
    which matches :func:`build_oag`'s per-chunk output (an edge requires
    both endpoints inside the chunk) at a fraction of the cost.
    """
    if not chunks:
        return []
    lo, hi, weights, operations = _chunk_overlap_pairs(hypergraph, side, chunks)
    oags = []
    for chunk in chunks:
        # ``lo`` ascends, and both pair endpoints share a chunk, so one
        # binary search per boundary slices out the chunk's pairs.
        a = np.searchsorted(lo, chunk.first, side="left")
        b = np.searchsorted(lo, chunk.last, side="left")
        oags.append(
            Oag(
                side=side,
                csr=_pairs_to_csr(
                    lo[a:b], hi[a:b], weights[a:b], w_min,
                    chunk.first, chunk.last - chunk.first,
                ),
                w_min=w_min,
                first_id=chunk.first,
                build_operations=operations // len(chunks),
            )
        )
    return oags
