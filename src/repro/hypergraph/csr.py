"""Compressed sparse row (CSR) adjacency structure.

The paper stores the bipartite representation of a hypergraph in two CSR
structures (Figure 4(c)): one mapping hyperedges to their incident vertices
and one mapping vertices to their incident hyperedges.  The same structure is
reused for the overlap-aware abstraction graph (OAG), which additionally
carries per-edge weights.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import HypergraphFormatError
from repro.records import Record

__all__ = ["Csr"]


@dataclasses.dataclass(eq=False)
class Csr(Record):
    """A CSR adjacency: ``offsets``/``indices`` and optional ``weights``.

    ``offsets`` has length ``num_rows + 1``; the neighbors of row ``r`` are
    ``indices[offsets[r]:offsets[r + 1]]``.  When ``weights`` is present it is
    parallel to ``indices``.
    """

    offsets: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        offsets = self.offsets = np.asarray(self.offsets, dtype=np.int64)
        indices = self.indices = np.asarray(self.indices, dtype=np.int64)
        if offsets.ndim != 1 or indices.ndim != 1:
            raise HypergraphFormatError("offsets and indices must be 1-D arrays")
        if offsets.size == 0:
            raise HypergraphFormatError("offsets must have at least one entry")
        if offsets[0] != 0 or offsets[-1] != indices.size:
            raise HypergraphFormatError(
                "offsets must start at 0 and end at len(indices)"
            )
        if np.any(np.diff(offsets) < 0):
            raise HypergraphFormatError("offsets must be non-decreasing")
        if self.weights is not None:
            self.weights = np.asarray(self.weights)
            if self.weights.shape != indices.shape:
                raise HypergraphFormatError("weights must parallel indices")
        # Lazily-built plain-list mirrors for the simulator inner loops: a
        # Python-int list index is several times cheaper than extracting a
        # numpy scalar per element.  The structure is immutable (see
        # ``Hypergraph.content_hash``), so the mirrors never go stale.
        self._offsets_list: list[int] | None = None
        self._indices_list: list[int] | None = None
        self._degrees_list: list[int] | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_lists(
        cls,
        adjacency: Sequence[Iterable[int]],
        weights: Sequence[Iterable[float]] | None = None,
    ) -> "Csr":
        """Build a CSR from a list of per-row neighbor iterables."""
        rows = [list(row) for row in adjacency]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=offsets[1:])
        indices = np.fromiter(
            (n for row in rows for n in row), dtype=np.int64, count=int(offsets[-1])
        )
        weight_array = None
        if weights is not None:
            flat = [w for row in weights for w in row]
            if len(flat) != indices.size:
                raise HypergraphFormatError("weights shape mismatch with adjacency")
            weight_array = np.asarray(flat, dtype=np.int64)
        return cls(offsets, indices, weight_array)

    # -- access ------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def num_entries(self) -> int:
        return int(self.indices.size)

    def degree(self, row: int) -> int:
        return int(self.offsets[row + 1] - self.offsets[row])

    def offsets_list(self) -> list[int]:
        """``offsets`` as a cached plain-int list (hot-loop mirror)."""
        if self._offsets_list is None:
            self._offsets_list = self.offsets.tolist()
        return self._offsets_list

    def indices_list(self) -> list[int]:
        """``indices`` as a cached plain-int list (hot-loop mirror)."""
        if self._indices_list is None:
            self._indices_list = self.indices.tolist()
        return self._indices_list

    def degrees_list(self) -> list[int]:
        """Per-row degrees as a cached plain-int list (hot-loop mirror)."""
        if self._degrees_list is None:
            self._degrees_list = np.diff(self.offsets).tolist()
        return self._degrees_list

    def neighbors(self, row: int) -> np.ndarray:
        return self.indices[self.offsets[row] : self.offsets[row + 1]]

    def neighbor_weights(self, row: int) -> np.ndarray:
        if self.weights is None:
            raise HypergraphFormatError("this CSR carries no weights")
        return self.weights[self.offsets[row] : self.offsets[row + 1]]

    def row_ids(self) -> np.ndarray:
        """The row of every entry, parallel to ``indices``."""
        return np.repeat(
            np.arange(self.num_rows, dtype=np.int64), np.diff(self.offsets)
        )

    def row_slice(self, row: int) -> tuple[int, int]:
        """Return ``(start, end)`` positions of ``row`` in ``indices``."""
        return int(self.offsets[row]), int(self.offsets[row + 1])

    def to_lists(self) -> list[list[int]]:
        return [list(map(int, self.neighbors(r))) for r in range(self.num_rows)]

    def transpose(self, num_cols: int | None = None) -> "Csr":
        """Return the transposed adjacency (columns become rows).

        Each output row lists the source rows in ascending order.
        """
        if num_cols is None:
            num_cols = int(self.indices.max()) + 1 if self.indices.size else 0
        counts = np.bincount(self.indices, minlength=num_cols)
        offsets = np.zeros(num_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Sorting packed (column, row) keys by value, in place, equals a
        # stable argsort by column at a fraction of its time and memory.
        span = max(self.num_rows, 1)
        keys = self.indices * span
        keys += self.row_ids()
        keys.sort()
        keys %= span
        return Csr(offsets, keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Csr):
            return NotImplemented
        same = np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.indices, other.indices
        )
        if not same:
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is None:
            return True
        return np.array_equal(self.weights, other.weights)

    def __repr__(self) -> str:
        return f"Csr(rows={self.num_rows}, entries={self.num_entries})"
