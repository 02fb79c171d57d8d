"""The scalar OAG builder: the parity oracle for :mod:`repro.core.oag`.

The original per-element implementation of Definition 1: walk every pivot
row, count each co-occurring pair in a dict, then emit the weight-descending
CSR with a per-row Python sort.  ``repro.core.oag`` builds the same OAG with
array operations; ``tests/core/test_fast_parity.py`` asserts the two agree
bit-for-bit, ``build_operations`` (Figure 21(a)) included.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.oag import DEFAULT_W_MIN, Oag
from repro.hypergraph.csr import Csr
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk

__all__ = ["build_chunk_oags", "build_oag"]


def _overlap_counts(
    hypergraph: Hypergraph, side: str, first_id: int, last_id: int
) -> tuple[dict[tuple[int, int], int], int]:
    """Count pairwise overlaps among elements in ``[first_id, last_id)``.

    For the hyperedge side, two hyperedges overlap once per shared vertex, so
    walking every vertex's incident-hyperedge list and counting pairs yields
    exactly ``|N(h) ∩ N(h')|``.  Returns the pair counts and the number of
    elementary counting operations (used for preprocessing-cost reporting,
    Figure 21(a)).
    """
    # Pivot side: vertices enumerate hyperedge pairs and vice versa.
    pivot = hypergraph.vertices if side == "hyperedge" else hypergraph.hyperedges
    counts: dict[tuple[int, int], int] = defaultdict(int)
    operations = 0
    for row in range(pivot.num_rows):
        incident = [
            int(e) for e in pivot.neighbors(row) if first_id <= e < last_id
        ]
        operations += len(incident)
        for i, a in enumerate(incident):
            for b in incident[i + 1 :]:
                counts[(a, b) if a < b else (b, a)] += 1
                operations += 1
    return counts, operations


def _counts_to_csr(
    counts: dict[tuple[int, int], int], w_min: int, first_id: int, num_nodes: int
) -> Csr:
    """The scalar CSR emitter (per-row Python sort)."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    for (a, b), weight in counts.items():
        if weight < w_min:
            continue
        adjacency[a - first_id].append((weight, b - first_id))
        adjacency[b - first_id].append((weight, a - first_id))

    rows: list[list[int]] = []
    weight_rows: list[list[int]] = []
    for entries in adjacency:
        # Descending weight; ascending id tiebreak for determinism.
        entries.sort(key=lambda pair: (-pair[0], pair[1]))
        rows.append([node for _, node in entries])
        weight_rows.append([weight for weight, _ in entries])
    return Csr.from_lists(rows, weights=weight_rows)


def build_oag(
    hypergraph: Hypergraph,
    side: str,
    w_min: int = DEFAULT_W_MIN,
    chunk: Chunk | None = None,
) -> Oag:
    """Scalar :func:`repro.core.oag.build_oag`."""
    universe = (
        hypergraph.num_hyperedges if side == "hyperedge" else hypergraph.num_vertices
    )
    first_id = chunk.first if chunk is not None else 0
    last_id = chunk.last if chunk is not None else universe
    counts, operations = _overlap_counts(hypergraph, side, first_id, last_id)
    return Oag(
        side=side,
        csr=_counts_to_csr(counts, w_min, first_id, last_id - first_id),
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
    """Scalar :func:`repro.core.oag.build_chunk_oags`: one pass over the
    pivot side, binning each row's incident elements by owning chunk."""
    if not chunks:
        return []
    pivot = hypergraph.vertices if side == "hyperedge" else hypergraph.hyperedges
    bounds = [chunk.first for chunk in chunks] + [chunks[-1].last]
    counts: list[dict[tuple[int, int], int]] = [defaultdict(int) for _ in chunks]
    operations = 0
    num_chunks = len(chunks)
    for row in range(pivot.num_rows):
        bins: dict[int, list[int]] = {}
        for e in pivot.neighbors(row):
            e = int(e)
            # Contiguous near-equal chunks: locate by division then adjust.
            c = min(e * num_chunks // max(bounds[-1], 1), num_chunks - 1)
            while e < bounds[c]:
                c -= 1
            while e >= bounds[c + 1]:
                c += 1
            bins.setdefault(c, []).append(e)
            operations += 1
        for c, incident in bins.items():
            table = counts[c]
            for i, a in enumerate(incident):
                for b in incident[i + 1 :]:
                    table[(a, b) if a < b else (b, a)] += 1
                    operations += 1

    return [
        Oag(
            side=side,
            csr=_counts_to_csr(table, w_min, chunk.first, chunk.last - chunk.first),
            w_min=w_min,
            first_id=chunk.first,
            build_operations=operations // len(chunks),
        )
        for chunk, table in zip(chunks, counts)
    ]
