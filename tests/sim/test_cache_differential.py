"""Differential test: fast O(1) Cache vs the reference list-based model.

Drives long randomized probe sequences through ``repro.sim.cache.Cache``
and ``tests/sim/cache_ref.Cache`` in lockstep and asserts every observable
is identical after every operation batch: return values, hit/miss/eviction/
writeback counters, victim predictions, dirty bits, residency order, and
set occupancy.  The fast model is only allowed to exist because it never
diverges from the reference.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.cache import Cache as FastCache
from tests.sim.cache_ref import Cache as RefCache

# (size_bytes, associativity, line_size) — small and highly contended so a
# few thousand ops exercise eviction and reordering constantly, including
# a direct-mapped and a single-set (fully associative) shape.
GEOMETRIES = [
    (1024, 4, 64),  # 4 sets x 4 ways: the scaled_config L1 shape
    (512, 1, 64),   # direct-mapped
    (512, 8, 64),   # single set, fully associative
    (8192, 8, 64),  # the scaled_config L2 shape
]

OPS = ("lookup", "fill", "fill_dirty", "access", "access_write",
       "invalidate", "mark_dirty", "victim_of", "is_dirty", "contains")
# Weights skew toward the hot-path ops but keep every branch exercised.
WEIGHTS = (20, 12, 8, 25, 15, 4, 6, 4, 3, 3)


def _assert_state_equal(fast: FastCache, ref: RefCache) -> None:
    assert fast.stats.hits == ref.stats.hits
    assert fast.stats.misses == ref.stats.misses
    assert fast.stats.evictions == ref.stats.evictions
    assert fast.stats.writebacks == ref.stats.writebacks
    assert fast.resident_lines() == ref.resident_lines()
    assert fast.dirty_lines() == ref.dirty_lines()
    assert fast.max_set_occupancy() == ref.max_set_occupancy()


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_differential_randomized(geometry: tuple[int, int, int]) -> None:
    size, assoc, line = geometry
    fast = FastCache(size, assoc, line)
    ref = RefCache(size, assoc, line)
    rng = random.Random(0xC0FFEE ^ size ^ assoc)
    # A line population ~4x capacity keeps both hits and evictions frequent.
    lines = list(range(4 * size // line))
    n_ops = 12_000

    for step in range(n_ops):
        op = rng.choices(OPS, weights=WEIGHTS)[0]
        line_no = rng.choice(lines)
        if op == "lookup":
            assert fast.lookup(line_no) == ref.lookup(line_no)
        elif op == "fill":
            assert fast.fill(line_no) == ref.fill(line_no)
        elif op == "fill_dirty":
            assert fast.fill(line_no, dirty=True) == ref.fill(line_no, dirty=True)
        elif op == "access":
            assert fast.access(line_no) == ref.access(line_no)
        elif op == "access_write":
            assert fast.access(line_no, write=True) == ref.access(line_no, write=True)
        elif op == "invalidate":
            assert fast.invalidate(line_no) == ref.invalidate(line_no)
        elif op == "mark_dirty":
            assert fast.mark_dirty(line_no) == ref.mark_dirty(line_no)
        elif op == "victim_of":
            assert fast.victim_of(line_no) == ref.victim_of(line_no)
        elif op == "is_dirty":
            assert fast.is_dirty(line_no) == ref.is_dirty(line_no)
        else:
            assert fast.contains(line_no) == ref.contains(line_no)
        # Full-state comparison every few ops keeps the test fast while
        # still catching divergence within a handful of operations.
        if step % 64 == 0:
            _assert_state_equal(fast, ref)

    _assert_state_equal(fast, ref)
    # The sequence must actually have exercised the interesting paths.
    assert fast.stats.evictions > 0
    assert fast.stats.writebacks > 0
    assert fast.stats.hits > 0
    assert fast.stats.misses > 0


def test_differential_sequential_streams() -> None:
    """Strided/sequential patterns (the batched-access shape) also agree."""
    fast = FastCache(1024, 4, 64)
    ref = RefCache(1024, 4, 64)
    for base in (0, 7, 100):
        for stride in (1, 2, 5):
            for i in range(300):
                line_no = base + i * stride
                write = (i % 3) == 0
                assert fast.access(line_no, write=write) == ref.access(
                    line_no, write=write
                )
    _assert_state_equal(fast, ref)


def test_reset_stats_matches() -> None:
    fast = FastCache(512, 2, 64)
    ref = RefCache(512, 2, 64)
    for line_no in range(32):
        fast.access(line_no)
        ref.access(line_no)
    fast.reset_stats()
    ref.reset_stats()
    _assert_state_equal(fast, ref)
    # State (not stats) survives the reset identically.
    assert fast.resident_lines() == ref.resident_lines()
