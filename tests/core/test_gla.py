"""Tests for the GLA schedule-generation layer (Algorithm 2's Generate)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import ChainGenerator
from repro.core.gla import ChunkSchedule, generate_schedules, index_order_schedule
from repro.core.oag import build_chunk_oags
from repro.hypergraph.frontier import Frontier
from repro.hypergraph.partition import Chunk, contiguous_chunks


def test_index_order_schedule_respects_chunk():
    frontier = Frontier(10, [1, 3, 5, 7, 9])
    chunk = Chunk(core=0, first=3, last=8)
    assert index_order_schedule(frontier, chunk) == [3, 5, 7]


def test_index_order_schedule_empty_frontier():
    frontier = Frontier(10)
    chunk = Chunk(core=0, first=0, last=10)
    assert index_order_schedule(frontier, chunk) == []


@st.composite
def _bitmap_and_chunk(draw):
    """A random bitmap and a chunk of it: possibly empty, possibly touching
    either end of the universe."""
    bitmap = np.array(draw(st.lists(st.booleans(), max_size=64)), dtype=bool)
    universe = len(bitmap)
    first = draw(st.sampled_from([0, universe]) | st.integers(0, universe))
    last = draw(st.sampled_from([first, universe]) | st.integers(first, universe))
    return bitmap, Chunk(core=0, first=first, last=last)


@given(_bitmap_and_chunk())
@settings(max_examples=200, deadline=None)
def test_index_order_schedule_matches_a_frontier_walk(case):
    bitmap, chunk = case
    frontier = Frontier.from_bitmap(bitmap)
    walk = [int(i) for i in frontier.ids() if chunk.first <= i < chunk.last]
    schedule = index_order_schedule(frontier, chunk)
    assert schedule == walk
    assert all(type(i) is int for i in schedule)


def test_generate_schedules_partitions_frontier(figure1):
    chunks = contiguous_chunks(figure1.num_hyperedges, 2)
    oags = build_chunk_oags(figure1, "hyperedge", chunks, w_min=1)
    frontier = Frontier.all_active(figure1.num_hyperedges)
    schedules = generate_schedules(frontier, chunks, oags, ChainGenerator())
    assert len(schedules) == 2
    all_scheduled = sorted(e for s in schedules for e in s.order())
    assert all_scheduled == [0, 1, 2, 3]
    for schedule, chunk in zip(schedules, chunks):
        assert all(e in chunk for e in schedule.order())


def test_generate_schedules_mismatched_lists(figure1):
    chunks = contiguous_chunks(figure1.num_hyperedges, 2)
    oags = build_chunk_oags(figure1, "hyperedge", chunks, w_min=1)
    frontier = Frontier.all_active(figure1.num_hyperedges)
    with pytest.raises(ValueError):
        generate_schedules(frontier, chunks[:1], oags, ChainGenerator())


def test_chunk_schedule_order(figure1):
    chunks = contiguous_chunks(figure1.num_hyperedges, 1)
    oags = build_chunk_oags(figure1, "hyperedge", chunks, w_min=1)
    frontier = Frontier.all_active(figure1.num_hyperedges)
    (schedule,) = generate_schedules(frontier, chunks, oags, ChainGenerator())
    assert isinstance(schedule, ChunkSchedule)
    assert schedule.order() == [0, 2, 1, 3]  # the Figure 1(b) chain
