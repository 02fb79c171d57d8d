"""Unit and property tests for the CSR adjacency structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HypergraphFormatError
from repro.hypergraph.csr import Csr


def test_from_lists_basic():
    csr = Csr.from_lists([[1, 2], [], [0]])
    assert csr.num_rows == 3
    assert csr.num_entries == 3
    assert list(csr.neighbors(0)) == [1, 2]
    assert list(csr.neighbors(1)) == []
    assert csr.degree(0) == 2
    assert csr.degree(1) == 0


def test_row_slice_matches_offsets():
    csr = Csr.from_lists([[5], [6, 7], []])
    assert csr.row_slice(0) == (0, 1)
    assert csr.row_slice(1) == (1, 3)
    assert csr.row_slice(2) == (3, 3)


def test_weights_parallel_to_indices():
    csr = Csr.from_lists([[1, 2], [0]], weights=[[10, 20], [30]])
    assert list(csr.neighbor_weights(0)) == [10, 20]
    assert list(csr.neighbor_weights(1)) == [30]


def test_weights_missing_raises():
    csr = Csr.from_lists([[1]])
    with pytest.raises(HypergraphFormatError):
        csr.neighbor_weights(0)


def test_weights_shape_mismatch_raises():
    with pytest.raises(HypergraphFormatError):
        Csr.from_lists([[1, 2]], weights=[[10]])


def test_invalid_offsets_rejected():
    with pytest.raises(HypergraphFormatError):
        Csr(np.array([1, 2]), np.array([0, 1]))  # does not start at 0
    with pytest.raises(HypergraphFormatError):
        Csr(np.array([0, 3]), np.array([0, 1]))  # does not end at len(indices)
    with pytest.raises(HypergraphFormatError):
        Csr(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))  # decreasing


def test_empty_offsets_rejected():
    with pytest.raises(HypergraphFormatError):
        Csr(np.array([], dtype=np.int64), np.array([], dtype=np.int64))


def test_transpose_simple():
    csr = Csr.from_lists([[0, 1], [1]])
    transposed = csr.transpose()
    assert transposed.to_lists() == [[0], [0, 1]]


def test_transpose_with_explicit_columns():
    csr = Csr.from_lists([[0]])
    transposed = csr.transpose(num_cols=3)
    assert transposed.num_rows == 3
    assert transposed.to_lists() == [[0], [], []]


def test_equality_includes_weights():
    a = Csr.from_lists([[1]], weights=[[5]])
    b = Csr.from_lists([[1]], weights=[[5]])
    c = Csr.from_lists([[1]], weights=[[6]])
    d = Csr.from_lists([[1]])
    assert a == b
    assert a != c
    assert a != d


adjacency_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=30), max_size=8),
    min_size=1,
    max_size=12,
)


@given(adjacency_strategy)
@settings(max_examples=60, deadline=None)
def test_roundtrip_from_lists_to_lists(rows):
    csr = Csr.from_lists(rows)
    assert csr.to_lists() == [list(row) for row in rows]


@given(adjacency_strategy)
@settings(max_examples=60, deadline=None)
def test_transpose_is_involution(rows):
    csr = Csr.from_lists(rows)
    num_cols = 31
    back = csr.transpose(num_cols=num_cols).transpose(num_cols=csr.num_rows)
    # Transposing twice restores each row as a multiset (CSR sorts columns).
    for row in range(csr.num_rows):
        assert sorted(csr.neighbors(row)) == sorted(back.neighbors(row))


@given(adjacency_strategy)
@settings(max_examples=60, deadline=None)
def test_transpose_preserves_entry_count(rows):
    csr = Csr.from_lists(rows)
    assert csr.transpose(num_cols=31).num_entries == csr.num_entries


@given(adjacency_strategy)
@settings(max_examples=60, deadline=None)
def test_transpose_lists_source_rows_in_ascending_order(rows):
    """Each column lists every row holding it, ascending, with multiplicity."""
    csr = Csr.from_lists(rows)
    expected = [
        [r for r, row in enumerate(rows) for c in row if c == col]
        for col in range(31)
    ]
    assert csr.transpose(num_cols=31).to_lists() == expected
