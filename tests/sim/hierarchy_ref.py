"""Per-element reference walk for the hierarchy's two port bodies.

A demand or engine access composed from the public cache operations —
``Cache.lookup`` (promote to MRU and count the hit or miss) and
``Cache.mark_dirty`` — plus the hierarchy's own miss paths, with no bound
state: every call re-derives the line and re-reads the hierarchy.  The
port closures in :mod:`repro.sim.hierarchy` inline the same hit paths over
the caches' dict sets; ``tests/sim/test_hierarchy_batched.py`` pins them
against this walk.
"""

from __future__ import annotations

from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId

__all__ = ["demand_access", "engine_access"]


def demand_access(
    hierarchy: MemoryHierarchy,
    core: int,
    array: ArrayId,
    index: int,
    write: bool = False,
) -> int:
    """One core demand access: coherence hook, L1, then the demand miss."""
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
        return hierarchy.config.l1_latency
    return hierarchy._demand_miss(core, array, line, write)


def engine_access(
    hierarchy: MemoryHierarchy, core: int, array: ArrayId, index: int
) -> int:
    """One decoupled-engine access: L2, then the engine miss."""
    line = hierarchy.layout.line_of(array, index)
    hierarchy.engine_probes += 1
    if hierarchy.l2[core].lookup(line):
        return hierarchy.config.l2_latency
    return hierarchy._engine_miss(core, array, line)
