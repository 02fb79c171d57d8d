"""Per-element reference walk for the hierarchy's two port bodies.

A demand or engine access composed from the public cache operations —
``Cache.lookup`` (promote to MRU and count the hit or miss),
``victim_of``/``is_dirty``/``fill`` for the L1 fill and ``mark_dirty`` for
a dirty victim absorbed lower down — plus the hierarchy's one miss body
past the L2, ``MemoryHierarchy._l2_miss``, with no bound state: every call
re-derives the line and re-reads the hierarchy.  The port closures in
:mod:`repro.sim.hierarchy` inline the same probes and the L1 fill over the
caches' dict sets; ``tests/sim/test_hierarchy_batched.py`` pins them
against this walk.  ``_l2_miss`` itself is shared by both sides, so its
numbers are pinned by ``tests/engine/test_model_digest.py`` instead.
"""

from __future__ import annotations

from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId

__all__ = ["demand_access", "engine_access"]


def _prune_owner(hierarchy: MemoryHierarchy, core: int, line: int) -> None:
    """Drop ``core`` from a line's owners once neither private cache holds it."""
    if hierarchy.l1[core].contains(line) or hierarchy.l2[core].contains(line):
        return
    owners = hierarchy._owners.get(line)
    if owners is not None:
        owners.discard(core)
        if not owners:
            del hierarchy._owners[line]


def demand_access(
    hierarchy: MemoryHierarchy,
    core: int,
    array: ArrayId,
    index: int,
    write: bool = False,
) -> int:
    """One core demand access: coherence hook, L1, L2, the miss body, then
    the L1 fill, whose dirty victim is absorbed by the copy in L2, else L3,
    else written back to memory."""
    config = hierarchy.config
    line = hierarchy.layout.line_of(array, index)
    hierarchy.demand_probes += 1
    coherence = hierarchy.coherence
    if coherence is not None:
        if write:
            coherence.on_write(core, line)
        else:
            coherence.on_read(core, line)
    l1 = hierarchy.l1[core]
    if l1.lookup(line):
        if write:
            l1.mark_dirty(line)
        return config.l1_latency
    latency = config.l1_latency + config.l2_latency
    l2 = hierarchy.l2[core]
    if not l2.lookup(line):
        latency += hierarchy._l2_miss(core, array, line)
    victim = l1.victim_of(line)
    victim_dirty = victim is not None and l1.is_dirty(victim)
    l1.fill(line, dirty=write)
    if victim is not None:
        if (
            victim_dirty
            and not l2.mark_dirty(victim)
            and not hierarchy.l3.mark_dirty(victim)
        ):
            hierarchy._writeback_to_dram(victim)
        if config.inclusive_l3:
            _prune_owner(hierarchy, core, victim)
    if config.inclusive_l3:
        hierarchy._owners.setdefault(line, set()).add(core)
    return latency


def engine_access(
    hierarchy: MemoryHierarchy, core: int, array: ArrayId, index: int
) -> int:
    """One decoupled-engine access: L2, then the directory's read and the
    miss body."""
    line = hierarchy.layout.line_of(array, index)
    hierarchy.engine_probes += 1
    if hierarchy.l2[core].lookup(line):
        return hierarchy.config.l2_latency
    if hierarchy.coherence is not None:
        hierarchy.coherence.on_read(core, line)
    return hierarchy.config.l2_latency + hierarchy._l2_miss(core, array, line)
