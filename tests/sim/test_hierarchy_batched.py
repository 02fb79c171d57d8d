"""Port equivalence tests for the memory hierarchy.

Ports are the hierarchy's one access path: closures that bind the line
arithmetic, set dicts, stats objects and latencies once per (core, array,
channel) and inline the L1/L2 hit paths.  They claim *bit-identity* with
the per-element reference walk in ``tests/sim/hierarchy_ref.py``, which
composes the same accesses from the public cache operations.  These tests
drive seeded randomized access streams through both on twin hierarchies —
runs of consecutive elements (the engines' offsets pairs are runs of two),
single accesses, and the system ports with their timer charges fused in —
and assert every observable is identical: returned latencies, hit/miss/
eviction/writeback counters at every level, probe counters, DRAM traffic
and its per-array attribution, dirty-line sets, and full LRU residency
order.  ``charge_compute_run`` carries the same claim for compute charges.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.config import scaled_config
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId
from repro.sim.system import SimulatedSystem
from tests.sim.hierarchy_ref import demand_access, engine_access

ARRAYS = [
    ArrayId.VERTEX_VALUE,
    ArrayId.HYPEREDGE_VALUE,
    ArrayId.INCIDENT_VERTEX,
    ArrayId.BITMAP,
    ArrayId.OAG_OFFSET,
]


def make_hierarchy(num_cores: int = 2, inclusive: bool = False) -> MemoryHierarchy:
    config = scaled_config(num_cores=num_cores, llc_kb=2).replace(
        inclusive_l3=inclusive
    )
    return MemoryHierarchy(config)


def _stats_tuple(cache):
    stats = cache.stats
    return (stats.hits, stats.misses, stats.evictions, stats.writebacks)


def snapshot(hierarchy: MemoryHierarchy):
    """Every externally observable fact about a hierarchy's state.

    ``resident_lines()`` iterates each set in LRU→MRU insertion order, so
    comparing it compares the full replacement state, not just membership.
    """
    caches = [*hierarchy.l1, *hierarchy.l2, hierarchy.l3]
    return {
        "stats": [_stats_tuple(cache) for cache in caches],
        "resident": [cache.resident_lines() for cache in caches],
        "dirty": [cache.dirty_lines() for cache in caches],
        "demand_probes": hierarchy.demand_probes,
        "engine_probes": hierarchy.engine_probes,
        "dram": (hierarchy.dram.accesses, hierarchy.dram.writes),
        "dram_by_array": dict(hierarchy.dram_breakdown()),
        "writebacks": dict(hierarchy.writeback_breakdown()),
    }


def _random_ops(seed: int, num_cores: int, n: int):
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        ops.append(
            (
                rng.randrange(num_cores),
                ARRAYS[rng.randrange(len(ARRAYS))],
                rng.randrange(2048),
                rng.randrange(1, 20),
                rng.random() < 0.4,
            )
        )
    return ops


def _bound(ports, hierarchy, core, array, channel):
    """The port for (core, array, channel), bound once and then reused."""
    key = (core, array, channel)
    port = ports.get(key)
    if port is None:
        port = ports[key] = hierarchy.port(core, array, channel)
    return port


# -- runs of consecutive elements vs the per-element reference ----------------


@pytest.mark.parametrize("inclusive", [False, True])
def test_access_block_matches_per_element(inclusive: bool) -> None:
    """A run of demand accesses through one bound read or write port."""
    fast = make_hierarchy(inclusive=inclusive)
    reference = make_hierarchy(inclusive=inclusive)
    ports = {}
    for core, array, start, count, write in _random_ops(0xB10C, 2, 600):
        port = _bound(ports, fast, core, array, "write" if write else "read")
        got = want = 0
        for index in range(start, start + count):
            got += port(index)
            want += demand_access(reference, core, array, index, write=write)
        assert got == want
        assert snapshot(fast) == snapshot(reference)


@pytest.mark.parametrize("inclusive", [False, True])
def test_engine_access_block_matches_per_element(inclusive: bool) -> None:
    """A run of engine accesses through one bound engine port."""
    fast = make_hierarchy(inclusive=inclusive)
    reference = make_hierarchy(inclusive=inclusive)
    ports = {}
    for core, array, start, count, _ in _random_ops(0xE27, 2, 600):
        port = _bound(ports, fast, core, array, "engine")
        got = want = 0
        for index in range(start, start + count):
            got += port(index)
            want += engine_access(reference, core, array, index)
        assert got == want
        assert snapshot(fast) == snapshot(reference)


# -- single accesses vs the per-element reference -----------------------------


@pytest.mark.parametrize("inclusive", [False, True])
def test_engine_prober_matches_engine_access(inclusive: bool) -> None:
    fast = make_hierarchy(inclusive=inclusive)
    reference = make_hierarchy(inclusive=inclusive)
    ports = {}
    for core, array, index, _, _ in _random_ops(0x9E0B, 2, 800):
        port = _bound(ports, fast, core, array, "engine")
        assert port(index) == engine_access(reference, core, array, index)
        assert snapshot(fast) == snapshot(reference)


def test_engine_pair_prober_matches_block_of_two() -> None:
    """The offsets-pair fetch: two calls of one engine port, whether or not
    the pair straddles a line boundary."""
    fast = make_hierarchy()
    reference = make_hierarchy()
    ports = {}
    for core, array, start, _, _ in _random_ops(0x9A12, 2, 800):
        port = _bound(ports, fast, core, array, "engine")
        got = port(start) + port(start + 1)
        want = engine_access(reference, core, array, start) + engine_access(
            reference, core, array, start + 1
        )
        assert got == want
        assert snapshot(fast) == snapshot(reference)


# -- system ports and batched charges ----------------------------------------


def test_demand_writer_matches_write_exactly() -> None:
    """The system's write port charges exactly the latency the reference
    write returns to the memory accumulator, one addition per access."""
    config = scaled_config(num_cores=2, llc_kb=2)
    fast = SimulatedSystem(config)
    reference = MemoryHierarchy(config)
    memory = [0.0] * config.num_cores
    ports = {}
    for core, array, index, _, _ in _random_ops(0x33F1, 2, 800):
        writer = _bound(ports, fast, core, array, "write")
        latency = demand_access(reference, core, array, index, write=True)
        memory[core] += latency
        assert writer(index) == latency
    assert snapshot(fast.hierarchy) == snapshot(reference)
    assert fast.timer._memory == memory


def test_demand_writer_with_coherence_matches_write() -> None:
    """Under coherence tracking the directory sees every access, inside the
    one demand body."""
    config = scaled_config(num_cores=2, llc_kb=2).replace(track_coherence=True)
    fast = SimulatedSystem(config)
    reference = MemoryHierarchy(config)
    ports = {}
    for core, array, index, _, write in _random_ops(0xC0E2, 2, 600):
        port = _bound(ports, fast, core, array, "write" if write else "read")
        assert port(index) == demand_access(
            reference, core, array, index, write=write
        )
    assert snapshot(fast.hierarchy) == snapshot(reference)
    assert fast.hierarchy.coherence.stats == reference.coherence.stats
    assert fast.hierarchy.coherence._sharers == reference.coherence._sharers


def test_charge_compute_run_matches_charge_sequence() -> None:
    """The batched charge replays the exact float-addition sequence —
    including non-integer cycle costs whose sum is order-sensitive."""
    config = scaled_config(num_cores=2, llc_kb=2)
    fast = SimulatedSystem(config)
    reference = SimulatedSystem(config)
    cycles = 6 * 1.3 + 1  # the PR per-tuple core cost: non-representable
    fast.charge_compute_run(0, cycles, 1000)
    for _ in range(1000):
        reference.charge_compute(0, cycles)
    assert fast.timer._compute == reference.timer._compute
    assert fast.total_compute_cycles == reference.total_compute_cycles
    fast.charge_compute_run(1, cycles, 0)  # zero-count: a no-op
    assert fast.timer._compute == reference.timer._compute


# -- conservation -------------------------------------------------------------


def test_dirty_lines_are_resident_and_writebacks_conserved() -> None:
    """After a heavy mixed write stream: every dirty line is still resident
    in its cache, and per-array writeback attribution sums to the total."""
    hierarchy = make_hierarchy()
    ports = {}
    for core, array, start, count, write in _random_ops(0xD127, 2, 1500):
        port = _bound(ports, hierarchy, core, array, "write" if write else "read")
        for index in range(start, start + count):
            port(index)
    for cache in [*hierarchy.l1, *hierarchy.l2, hierarchy.l3]:
        resident = set(cache.resident_lines())
        assert set(cache.dirty_lines()) <= resident
    assert hierarchy.writebacks() == sum(
        hierarchy.writeback_breakdown().values()
    )
