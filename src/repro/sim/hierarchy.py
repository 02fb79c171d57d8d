"""The three-level cache hierarchy with per-array DRAM attribution.

Private L1/L2 per core, shared banked inclusive L3, and a DRAM model.  Every
access is attributed to one of the :class:`~repro.sim.layout.ArrayId` arrays
so the Figure 15 breakdown can be reproduced exactly.

Simplifications relative to ZSim (documented in DESIGN.md): MESI is reduced
to inclusive presence + dirty bits — the engines are synchronous and
partition writes by chunk, so cross-core write races do not occur; read
sharing is naturally captured by the shared L3.

Write traffic: victim dirty bits thread down the hierarchy (an L1 dirty
victim is absorbed by the L2 copy, an L2 dirty victim by the L3 copy, and
so on), and a line finally written back to memory is counted per array in
``dram_writebacks_by_array`` — a counter *separate* from ``dram_by_array``,
which holds line *fetches* only, so the Figure 2/14/15 read-count ratios
are unaffected by the write path.  OAG lines are never dirty, matching the
paper's "discard rather than write back" rule for OAG entries.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.cache import Cache
from repro.sim.coherence import MesiDirectory
from repro.sim.config import SystemConfig
from repro.sim.dram import DramModel
from repro.sim.layout import ArrayId, MemoryLayout
from repro.sim.noc import MeshNoc

__all__ = ["MemoryHierarchy"]

_NUM_ARRAYS = len(ArrayId)


class MemoryHierarchy:
    """Functional cache hierarchy shared by all execution engines."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.layout = MemoryLayout(config.line_size)
        self.l1 = [
            Cache(config.l1_size, config.l1_assoc, config.line_size)
            for _ in range(config.num_cores)
        ]
        self.l2 = [
            Cache(config.l2_size, config.l2_assoc, config.line_size)
            for _ in range(config.num_cores)
        ]
        self.l3 = Cache(config.l3_size, config.l3_assoc, config.line_size)
        self.noc = MeshNoc(
            max(config.num_cores, config.l3_banks),
            config.noc_router_latency,
            config.noc_link_latency,
        )
        self.dram = DramModel(
            num_controllers=config.dram_controllers,
            base_latency=config.dram_latency,
            line_size=config.line_size,
            bytes_per_cycle_per_controller=config.dram_bytes_per_cycle_per_controller,
        )
        # DRAM line fetches attributed per array (Figure 15) and, separately,
        # DRAM line writebacks per array (write traffic never pollutes the
        # read counts the figures are built from).
        self.dram_by_array = [0] * _NUM_ARRAYS
        self.dram_writebacks_by_array = [0] * _NUM_ARRAYS
        # Probe counters for the invariant checker: every demand/engine call
        # into the hierarchy bumps one of these, so conservation equations
        # hold even for engines that take the ``engine_access`` bound method
        # and bypass any observing facade.
        self.demand_probes = 0
        self.engine_probes = 0
        # Invariant-checker hook: called with the line number whenever a
        # dirty line is retired to memory.  Charges nothing.
        self.on_writeback: Callable[[int], None] | None = None
        # Optional MESI directory (Table I); tracks the L2 level, the larger
        # private cache, as each core's coherence point.
        self.coherence = MesiDirectory() if config.track_coherence else None
        # Which cores may hold a line in a private cache (for inclusive-L3
        # back-invalidation); maintained only when ``inclusive_l3`` is set.
        self._owners: dict[int, set[int]] = {}
        self._l3_latency_cache: dict[int, int] = {}
        # Hot-path constants hoisted out of per-access attribute chains.
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._inclusive = config.inclusive_l3

    # -- internal helpers ---------------------------------------------------

    def _l3_round_trip(self, core: int, line: int) -> int:
        """NoC round trip to the owning L3 bank plus bank latency."""
        bank = line % self.config.l3_banks
        key = core * self.config.l3_banks + bank
        latency = self._l3_latency_cache.get(key)
        if latency is None:
            # Banks are striped across mesh tiles.
            tile = (bank * max(1, self.noc.num_tiles // self.config.l3_banks)) % (
                self.noc.num_tiles
            )
            latency = self.noc.round_trip(core, tile) + self.config.l3_latency
            self._l3_latency_cache[key] = latency
        return latency

    def _writeback_to_dram(self, line: int) -> None:
        """Retire a dirty line to memory, attributed to its owning array."""
        self.dram_writebacks_by_array[self.layout.array_of_line(line)] += 1
        self.dram.record_write()
        if self.on_writeback is not None:
            self.on_writeback(line)

    def _back_invalidate(self, line: int) -> bool:
        """Inclusive L3: an evicted line must leave all private caches.

        Returns whether any invalidated private copy was dirty — the caller
        must then write the line back to memory, since ``Cache.invalidate``
        discards the dirty bit along with the line.
        """
        owners = self._owners.pop(line, None)
        if not owners:
            return False
        dirty = False
        for core in owners:
            dirty = self.l1[core].is_dirty(line) or dirty
            dirty = self.l2[core].is_dirty(line) or dirty
            self.l1[core].invalidate(line)
            self.l2[core].invalidate(line)
            if self.coherence is not None:
                self.coherence.on_evict(core, line)
        return dirty

    def _note_owner(self, line: int, core: int) -> None:
        self._owners.setdefault(line, set()).add(core)

    def _prune_owner(self, line: int, core: int) -> None:
        """Drop ``core`` from a line's owner set once neither private cache
        holds the line, so back-invalidation never targets stale owners."""
        if self.l1[core].contains(line) or self.l2[core].contains(line):
            return
        owners = self._owners.get(line)
        if owners is not None:
            owners.discard(core)
            if not owners:
                del self._owners[line]

    # -- fill helpers (victim dirty-bit propagation) --------------------------

    # The fills manipulate the cache's recency dicts directly rather than
    # composing ``victim_of`` + ``is_dirty`` + ``fill`` — same victim
    # choice, same stats bumps, same dirty-bit handling, three calls fewer
    # on every miss.  They are only ever called with ``line`` absent (the
    # caller just took the miss; back-invalidation can only *remove* lines).
    # The L1 fill has a single caller and lives inline in ``_demand_miss``.

    def _fill_l2(self, core: int, line: int) -> None:
        """Fill the core's L2; a dirty victim is absorbed by the L3 copy or
        written back to memory."""
        l2 = self.l2[core]
        ways = l2._sets[line % l2.num_sets]
        victim = None
        victim_dirty = False
        if len(ways) >= l2.associativity:
            victim = next(iter(ways))
            del ways[victim]
            l2.stats.evictions += 1
            if victim in l2._dirty:
                l2._dirty.discard(victim)
                l2.stats.writebacks += 1
                victim_dirty = True
        ways[line] = None
        if victim is None:
            return
        if self.coherence is not None:
            self.coherence.on_evict(core, victim)
        if victim_dirty:
            l3 = self.l3
            if victim in l3._sets[victim % l3.num_sets]:
                l3._dirty.add(victim)
            else:
                self._writeback_to_dram(victim)
        if self._inclusive:
            self._prune_owner(victim, core)

    def _fill_l3(self, line: int) -> None:
        """Fill the shared L3; a dirty victim — or one with a dirty private
        copy under inclusion — is written back to memory."""
        l3 = self.l3
        ways = l3._sets[line % l3.num_sets]
        victim = None
        victim_dirty = False
        if len(ways) >= l3.associativity:
            victim = next(iter(ways))
            del ways[victim]
            l3.stats.evictions += 1
            if victim in l3._dirty:
                l3._dirty.discard(victim)
                l3.stats.writebacks += 1
                victim_dirty = True
        ways[line] = None
        if victim is None:
            return
        if self._inclusive:
            victim_dirty = self._back_invalidate(victim) or victim_dirty
        if victim_dirty:
            self._writeback_to_dram(victim)

    # -- the access path ------------------------------------------------------

    # The L1/L2 *hit* paths below are inlined over the fast cache's dict
    # sets rather than going through ``Cache.lookup``/``mark_dirty`` — same
    # operations (promote to MRU, bump hit counter, set dirty bit), minus
    # two Python calls per probe on the path that serves the vast majority
    # of accesses.  ``tests/sim/test_hierarchy_batched.py`` pins the
    # equivalence against a per-element reference walk.

    def access(self, core: int, array: ArrayId, index: int, write: bool = False) -> int:
        """Perform one element access; returns its latency in core cycles."""
        layout = self.layout
        line = layout._line_base[array] + (
            (index * layout._elem_bytes[array]) >> layout._line_shift
        )
        self.demand_probes += 1

        if self.coherence is not None:
            if write:
                self.coherence.on_write(core, line)
            else:
                self.coherence.on_read(core, line)

        l1 = self.l1[core]
        ways = l1._sets[line % l1.num_sets]
        if line in ways:
            del ways[line]
            ways[line] = None
            l1.stats.hits += 1
            if write:
                l1._dirty.add(line)
            return self._l1_latency
        l1.stats.misses += 1
        return self._demand_miss(core, array, line, write)

    def _demand_miss(self, core: int, array: ArrayId, line: int, write: bool) -> int:
        """The demand path past an L1 miss (shared with the fast closures).

        Ends in the L1 fill: a dirty victim is absorbed by the copy in L2,
        else L3, else written back to memory directly.
        """
        latency = self._l1_latency + self._l2_latency
        l2 = self.l2[core]
        l2_ways = l2._sets[line % l2.num_sets]
        if line in l2_ways:
            del l2_ways[line]
            l2_ways[line] = None
            l2.stats.hits += 1
        else:
            l2.stats.misses += 1
            latency += self._l3_round_trip(core, line)
            if not self.l3.lookup(line):
                # Miss to DRAM.
                latency += self.dram.record_access()
                self.dram_by_array[array] += 1
                self._fill_l3(line)
            self._fill_l2(core, line)

        l1 = self.l1[core]
        ways = l1._sets[line % l1.num_sets]
        dirty_lines = l1._dirty
        victim = None
        victim_dirty = False
        if len(ways) >= l1.associativity:
            victim = next(iter(ways))
            del ways[victim]
            l1.stats.evictions += 1
            if victim in dirty_lines:
                dirty_lines.discard(victim)
                l1.stats.writebacks += 1
                victim_dirty = True
        ways[line] = None
        if write:
            dirty_lines.add(line)
        if victim is not None:
            if victim_dirty:
                if victim in l2._sets[victim % l2.num_sets]:
                    l2._dirty.add(victim)
                else:
                    l3 = self.l3
                    if victim in l3._sets[victim % l3.num_sets]:
                        l3._dirty.add(victim)
                    else:
                        self._writeback_to_dram(victim)
            if self._inclusive:
                self._prune_owner(victim, core)
        if self._inclusive:
            self._note_owner(line, core)
        return latency

    def engine_access(self, core: int, array: ArrayId, index: int) -> int:
        """An access issued by the per-core ChGraph engine.

        ChGraph sits beside the L1 but "accesses the main memory via the L2
        cache" (§V-A): it probes L2 directly and fills L2 (never the core's
        L1), so prefetched lines land where the core's demand misses will
        find them without polluting the L1.
        """
        layout = self.layout
        line = layout._line_base[array] + (
            (index * layout._elem_bytes[array]) >> layout._line_shift
        )
        self.engine_probes += 1
        l2 = self.l2[core]
        ways = l2._sets[line % l2.num_sets]
        if line in ways:
            del ways[line]
            ways[line] = None
            l2.stats.hits += 1
            return self._l2_latency
        l2.stats.misses += 1
        return self._engine_miss(core, array, line)

    def _engine_miss(self, core: int, array: ArrayId, line: int) -> int:
        """The engine path past an L2 miss (shared with :meth:`engine_prober`)."""
        latency = self._l2_latency + self._l3_round_trip(core, line)
        if not self.l3.lookup(line):
            latency += self.dram.record_access()
            self.dram_by_array[array] += 1
            self._fill_l3(line)
        if self.coherence is not None:
            self.coherence.on_read(core, line)
        self._fill_l2(core, line)
        if self._inclusive:
            self._note_owner(line, core)
        return latency

    # -- pre-bound hot-path closures ------------------------------------------
    #
    # The engines' inner loops probe the same (core, array) pair tens of
    # thousands of times per phase.  These factories return closures with
    # the line arithmetic, set list, stats object and latencies already
    # bound, so each probe is one call with one integer argument — the same
    # state transitions as ``access``/``engine_access``, verified by
    # ``tests/sim/test_hierarchy_batched.py``.

    def engine_prober(self, core: int, array: ArrayId, counted: bool = True):
        """A bound ``probe(index) -> latency`` over :meth:`engine_access`.

        With ``counted=False`` the closure does NOT bump ``engine_probes``
        — the caller takes over that accounting (it knows exactly how many
        probes it issued) and must add the total itself.  The probe counter
        is order-independent, so deferring it is exact.
        """
        layout = self.layout
        base = layout._line_base[array]
        elem_bytes = layout._elem_bytes[array]
        shift = layout._line_shift
        l2 = self.l2[core]
        sets = l2._sets
        num_sets = l2.num_sets
        stats = l2.stats
        l2_latency = self._l2_latency
        engine_miss = self._engine_miss

        if counted:

            def probe(index: int) -> int:
                line = base + ((index * elem_bytes) >> shift)
                self.engine_probes += 1
                ways = sets[line % num_sets]
                if line in ways:
                    del ways[line]
                    ways[line] = None
                    stats.hits += 1
                    return l2_latency
                stats.misses += 1
                return engine_miss(core, array, line)

            return probe

        def probe_uncounted(index: int) -> int:
            line = base + ((index * elem_bytes) >> shift)
            ways = sets[line % num_sets]
            if line in ways:
                del ways[line]
                ways[line] = None
                stats.hits += 1
                return l2_latency
            stats.misses += 1
            return engine_miss(core, array, line)

        return probe_uncounted

    def engine_pair_prober(self, core: int, array: ArrayId):
        """A bound ``probe_pair(start) -> latency`` equal to
        ``engine_access_block(core, array, start, 2)``.

        The offsets-pair fetch (an element's ``[start, end)`` bounds) is the
        engines' commonest block access; this closure specializes the
        two-element case: one probe, plus either a free same-line hit or a
        second probe when the pair straddles a line boundary.
        """
        layout = self.layout
        if layout._elems_per_line[array] <= 1:
            engine_access = self.engine_access

            def probe_pair_wide(start: int) -> int:
                return engine_access(core, array, start) + engine_access(
                    core, array, start + 1
                )

            return probe_pair_wide
        base = layout._line_base[array]
        elem_bytes = layout._elem_bytes[array]
        shift = layout._line_shift
        l2 = self.l2[core]
        sets = l2._sets
        num_sets = l2.num_sets
        stats = l2.stats
        l2_latency = self._l2_latency
        engine_miss = self._engine_miss

        def probe_pair(start: int) -> int:
            line = base + ((start * elem_bytes) >> shift)
            self.engine_probes += 2
            ways = sets[line % num_sets]
            if line in ways:
                del ways[line]
                ways[line] = None
                stats.hits += 1
                total = l2_latency
            else:
                stats.misses += 1
                total = engine_miss(core, array, line)
            line2 = base + (((start + 1) * elem_bytes) >> shift)
            if line2 == line:
                # Same line: charged as an L2 hit without re-probing (the
                # first probe left it resident and MRU).
                stats.hits += 1
                return total + l2_latency
            ways = sets[line2 % num_sets]
            if line2 in ways:
                del ways[line2]
                ways[line2] = None
                stats.hits += 1
                return total + l2_latency
            stats.misses += 1
            return total + engine_miss(core, array, line2)

        return probe_pair

    # -- batched (line-granular) access ---------------------------------------
    #
    # Why batching is *bit-identical* to the per-element loop it replaces:
    # after ``access(core, array, index)`` returns, the touched line is
    # resident (and MRU) in the core's L1 — the hit path promotes it, and
    # the miss path ends in the L1 fill.  A subsequent access to another
    # element of the *same line* therefore always takes the L1-hit path:
    # it bumps ``demand_probes`` and ``l1.stats.hits``, costs exactly
    # ``l1_latency``, promotes an already-MRU line (a no-op on LRU order),
    # re-marks an already-dirty line on writes (a no-op on state), and its
    # coherence call returns without transitions or stats (``on_read`` with
    # the core already a sharer; ``on_write`` with the core already the sole
    # M owner).  So the successors can be charged arithmetically.  The same
    # argument holds for :meth:`engine_access` with L2 in place of L1 —
    # and there the L2-hit path performs no coherence call at all.

    def access_block(
        self, core: int, array: ArrayId, start: int, count: int, write: bool = False
    ) -> int:
        """Access ``count`` consecutive elements; returns total latency.

        Probes the hierarchy once per cache line and charges the remaining
        same-line elements as L1 hits — provably identical to calling
        :meth:`access` once per element (see the note above).
        """
        if count <= 0:
            return 0
        layout = self.layout
        epl = layout._elems_per_line[array]
        if epl <= 1:
            total = 0
            for index in range(start, start + count):
                total += self.access(core, array, index, write=write)
            return total
        l1_latency = self._l1_latency
        l1_stats = self.l1[core].stats
        access = self.access
        total = 0
        index = start
        end = start + count
        while index < end:
            total += access(core, array, index, write=write)
            boundary = (index // epl + 1) * epl  # first element of next line
            if boundary > end:
                boundary = end
            extra = boundary - index - 1
            if extra > 0:
                l1_stats.hits += extra
                self.demand_probes += extra
                total += extra * l1_latency
            index = boundary
        return total

    def engine_access_block(
        self, core: int, array: ArrayId, start: int, count: int
    ) -> int:
        """Engine-side access of ``count`` consecutive elements.

        One L2-side probe per line; same-line successors are charged as L2
        hits — identical to per-element :meth:`engine_access` (see above).
        """
        if count <= 0:
            return 0
        layout = self.layout
        epl = layout._elems_per_line[array]
        if epl <= 1:
            total = 0
            for index in range(start, start + count):
                total += self.engine_access(core, array, index)
            return total
        l2_latency = self._l2_latency
        l2_stats = self.l2[core].stats
        engine_access = self.engine_access
        total = 0
        index = start
        end = start + count
        while index < end:
            total += engine_access(core, array, index)
            boundary = (index // epl + 1) * epl
            if boundary > end:
                boundary = end
            extra = boundary - index - 1
            if extra > 0:
                l2_stats.hits += extra
                self.engine_probes += extra
                total += extra * l2_latency
            index = boundary
        return total

    # -- statistics -----------------------------------------------------------

    def dram_accesses(self) -> int:
        """Total DRAM line fetches (demand misses)."""
        return sum(self.dram_by_array)

    def dram_breakdown(self) -> dict[ArrayId, int]:
        return {ArrayId(i): count for i, count in enumerate(self.dram_by_array)}

    def writebacks(self) -> int:
        """Dirty lines written back from the hierarchy to memory."""
        return sum(self.dram_writebacks_by_array)

    def writeback_breakdown(self) -> dict[ArrayId, int]:
        """Per-array DRAM write traffic (the write-side of Figure 15)."""
        return {
            ArrayId(i): count
            for i, count in enumerate(self.dram_writebacks_by_array)
        }

    def reset_stats(self) -> None:
        for cache in (*self.l1, *self.l2, self.l3):
            cache.reset_stats()
        self.dram.reset()
        self.dram_by_array = [0] * _NUM_ARRAYS
        self.dram_writebacks_by_array = [0] * _NUM_ARRAYS
        self.demand_probes = 0
        self.engine_probes = 0
