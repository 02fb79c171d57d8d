"""Tests for the three-level hierarchy and per-array DRAM attribution."""

from __future__ import annotations


from repro.sim.config import scaled_config
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ELEMENT_BYTES, ArrayId


def make_hierarchy(num_cores: int = 2, inclusive: bool = False) -> MemoryHierarchy:
    config = scaled_config(num_cores=num_cores, llc_kb=2).replace(
        inclusive_l3=inclusive
    )
    return MemoryHierarchy(config)


def access(
    hierarchy: MemoryHierarchy,
    core: int,
    array: ArrayId,
    index: int,
    write: bool = False,
) -> int:
    """One demand access through a freshly bound port."""
    return hierarchy.port(core, array, "write" if write else "read")(index)


def engine_access(
    hierarchy: MemoryHierarchy, core: int, array: ArrayId, index: int
) -> int:
    """One engine access through a freshly bound port."""
    return hierarchy.port(core, array, "engine")(index)


def elements_per_line(hierarchy: MemoryHierarchy, array: ArrayId) -> int:
    return hierarchy.config.line_size // ELEMENT_BYTES[array]


def test_first_access_misses_to_dram():
    hierarchy = make_hierarchy()
    latency = access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    assert latency >= hierarchy.config.dram_latency
    assert hierarchy.dram_accesses() == 1
    assert hierarchy.dram_breakdown()[ArrayId.VERTEX_VALUE] == 1


def test_second_access_hits_l1():
    hierarchy = make_hierarchy()
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    latency = access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    assert latency == hierarchy.config.l1_latency
    assert hierarchy.dram_accesses() == 1


def test_same_line_elements_share_fetch():
    hierarchy = make_hierarchy()
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 7)  # same 64B line (8B elements)
    assert hierarchy.dram_accesses() == 1
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 8)  # next line
    assert hierarchy.dram_accesses() == 2


def test_cross_core_sharing_through_l3():
    hierarchy = make_hierarchy()
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    latency = access(hierarchy, 1, ArrayId.VERTEX_VALUE, 0)
    # Core 1 misses privately but hits the shared L3: cheaper than DRAM.
    assert latency < hierarchy.config.dram_latency
    assert hierarchy.dram_accesses() == 1


def test_per_array_attribution_separates_regions():
    hierarchy = make_hierarchy()
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    access(hierarchy, 0, ArrayId.HYPEREDGE_VALUE, 0)
    breakdown = hierarchy.dram_breakdown()
    assert breakdown[ArrayId.VERTEX_VALUE] == 1
    assert breakdown[ArrayId.HYPEREDGE_VALUE] == 1


def test_engine_access_fills_l2_not_l1():
    hierarchy = make_hierarchy()
    engine_access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    line = hierarchy.layout.line_of(ArrayId.VERTEX_VALUE, 0)
    assert hierarchy.l2[0].contains(line)
    assert not hierarchy.l1[0].contains(line)
    assert hierarchy.l1[0].stats.accesses == 0  # the engine never probes L1
    # The core's subsequent demand access finds it in L2.
    latency = access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    assert latency == hierarchy.config.l1_latency + hierarchy.config.l2_latency


def test_engine_access_counts_dram_once():
    hierarchy = make_hierarchy()
    engine_access(hierarchy, 0, ArrayId.OAG_EDGE, 0)
    engine_access(hierarchy, 0, ArrayId.OAG_EDGE, 1)
    assert hierarchy.dram_breakdown()[ArrayId.OAG_EDGE] == 1


def test_inclusive_back_invalidation():
    hierarchy = make_hierarchy(inclusive=True)
    config = hierarchy.config
    l3_lines = config.l3_size // config.line_size
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    first_line = hierarchy.layout.line_of(ArrayId.VERTEX_VALUE, 0)
    assert hierarchy.l1[0].contains(first_line)
    # Stream enough distinct lines through one L3 set to evict line 0.
    # Lines conflict when they share an L3 set: step by num_sets lines.
    step = hierarchy.l3.num_sets * elements_per_line(hierarchy, ArrayId.VERTEX_VALUE)
    for i in range(1, config.l3_assoc + 2):
        access(hierarchy, 1, ArrayId.VERTEX_VALUE, i * step)
    assert not hierarchy.l3.contains(first_line)
    assert not hierarchy.l1[0].contains(first_line)
    assert not hierarchy.l2[0].contains(first_line)


def test_non_inclusive_keeps_private_copies():
    hierarchy = make_hierarchy(inclusive=False)
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    first_line = hierarchy.layout.line_of(ArrayId.VERTEX_VALUE, 0)
    step = hierarchy.l3.num_sets * elements_per_line(hierarchy, ArrayId.VERTEX_VALUE)
    for i in range(1, hierarchy.config.l3_assoc + 2):
        access(hierarchy, 1, ArrayId.VERTEX_VALUE, i * step)
    assert not hierarchy.l3.contains(first_line)
    assert hierarchy.l1[0].contains(first_line)  # survives L3 eviction


def test_reset_stats_clears_counters():
    hierarchy = make_hierarchy()
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    probe = hierarchy.port(0, ArrayId.OAG_EDGE, "engine")
    hierarchy.reset_stats()
    assert hierarchy.dram_accesses() == 0
    assert hierarchy.l3.stats.accesses == 0
    # A port bound before the reset still counts into the live stats.
    probe(0)
    probe(1)
    l2 = hierarchy.l2[0].stats
    assert (l2.misses, l2.hits) == (1, 1)
    assert l2.accesses == hierarchy.engine_probes == 2
    assert hierarchy.dram_accesses() == 1


# -- write traffic (dirty propagation and DRAM writebacks) --------------------


def _dirty_resident_lines(hierarchy: MemoryHierarchy) -> set[int]:
    lines: set[int] = set()
    for cache in (*hierarchy.l1, *hierarchy.l2, hierarchy.l3):
        lines.update(cache.dirty_lines())
    return lines


def test_capacity_eviction_writes_back_dirty_line():
    hierarchy = make_hierarchy()
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0, write=True)
    assert hierarchy.writebacks() == 0  # still resident, nothing drained
    # Stream enough distinct lines to push line 0 out of every level.
    for i in range(1, 20_000):
        access(
            hierarchy,
            0,
            ArrayId.VERTEX_VALUE,
            i * elements_per_line(hierarchy, ArrayId.VERTEX_VALUE),
        )
    assert hierarchy.writebacks() == 1
    assert hierarchy.writeback_breakdown()[ArrayId.VERTEX_VALUE] == 1
    assert hierarchy.dram.writes == 1


def test_write_heavy_workload_conserves_dirty_lines():
    # Every line ever dirtied must end as at least one DRAM writeback or
    # stay dirty-resident in some cache — the bug this PR fixed dropped
    # them silently at eviction.
    hierarchy = make_hierarchy()
    writebacks: set[int] = set()
    hierarchy.on_writeback = writebacks.add
    dirtied: set[int] = set()
    for i in range(30_000):
        index = (i * 17) % 8192
        access(hierarchy, i % 2, ArrayId.VERTEX_VALUE, index, write=True)
        dirtied.add(hierarchy.layout.line_of(ArrayId.VERTEX_VALUE, index))
    assert hierarchy.writebacks() > 0
    assert hierarchy.dram.writes == hierarchy.writebacks()
    assert sum(hierarchy.writeback_breakdown().values()) == hierarchy.writebacks()
    assert dirtied <= writebacks | _dirty_resident_lines(hierarchy)


def test_inclusive_back_invalidation_drains_private_dirty_copy():
    hierarchy = make_hierarchy(inclusive=True)
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0, write=True)
    first_line = hierarchy.layout.line_of(ArrayId.VERTEX_VALUE, 0)
    step = hierarchy.l3.num_sets * elements_per_line(hierarchy, ArrayId.VERTEX_VALUE)
    for i in range(1, hierarchy.config.l3_assoc + 2):
        access(hierarchy, 1, ArrayId.VERTEX_VALUE, i * step)
    # The L3 eviction back-invalidated core 0's dirty copy: the dirty data
    # must have reached DRAM rather than vanishing with the invalidation.
    assert not hierarchy.l1[0].contains(first_line)
    assert hierarchy.writebacks() == 1
    assert hierarchy.writeback_breakdown()[ArrayId.VERTEX_VALUE] == 1


def test_owner_tracking_only_when_inclusive():
    hierarchy = make_hierarchy(inclusive=False)
    for i in range(64):
        access(hierarchy, i % 2, ArrayId.VERTEX_VALUE, i)
        access(hierarchy, i % 2, ArrayId.VERTEX_VALUE, i)  # L1 hits too
    assert hierarchy._owners == {}


def test_owners_pruned_after_private_eviction():
    hierarchy = make_hierarchy(inclusive=True)
    access(hierarchy, 0, ArrayId.VERTEX_VALUE, 0)
    first_line = hierarchy.layout.line_of(ArrayId.VERTEX_VALUE, 0)
    assert 0 in hierarchy._owners.get(first_line, set())
    # Conflict line 0 out of core 0's private caches (same L1/L2 sets).
    step = max(
        hierarchy.l1[0].num_sets, hierarchy.l2[0].num_sets
    ) * elements_per_line(hierarchy, ArrayId.VERTEX_VALUE)
    assoc = max(hierarchy.config.l1_assoc, hierarchy.config.l2_assoc)
    for i in range(1, assoc + 2):
        access(hierarchy, 0, ArrayId.VERTEX_VALUE, i * step)
    assert not hierarchy.l1[0].contains(first_line)
    assert not hierarchy.l2[0].contains(first_line)
    assert 0 not in hierarchy._owners.get(first_line, set())
