"""Tests for the simulated memory layout of the named arrays."""

from __future__ import annotations

import pytest

from repro.sim.layout import ARRAY_GROUPS, ArrayId, MemoryLayout


def test_addresses_disjoint_across_arrays():
    layout = MemoryLayout()
    # Even very large indices stay within an array's 1 GiB region.
    big_index = 10_000_000
    regions = set()
    for array in ArrayId:
        address = layout.address(array, big_index)
        regions.add(address >> 30)
    assert len(regions) == len(ArrayId)


def test_line_of_element_width():
    layout = MemoryLayout(line_size=64)
    # 8-byte values: 8 per line.
    assert layout.line_of(ArrayId.VERTEX_VALUE, 0) == layout.line_of(
        ArrayId.VERTEX_VALUE, 7
    )
    assert layout.line_of(ArrayId.VERTEX_VALUE, 8) != layout.line_of(
        ArrayId.VERTEX_VALUE, 7
    )
    # 4-byte ids: 16 per line; 1-byte bitmap flags: 64 per line.
    for array, per_line in ((ArrayId.INCIDENT_VERTEX, 16), (ArrayId.BITMAP, 64)):
        first = layout.line_of(array, 0)
        assert layout.line_of(array, per_line - 1) == first
        assert layout.line_of(array, per_line) == first + 1


def test_array_of_line_roundtrip():
    layout = MemoryLayout()
    for array in ArrayId:
        line = layout.line_of(array, 123)
        assert layout.array_of_line(line) == array


def test_non_power_of_two_line_rejected():
    with pytest.raises(ValueError):
        MemoryLayout(line_size=48)


def test_groups_cover_all_arrays_once():
    seen = [array for arrays in ARRAY_GROUPS.values() for array in arrays]
    assert sorted(seen) == sorted(ArrayId)
    assert set(ARRAY_GROUPS) == {"offset", "incident", "value", "oag", "other"}
