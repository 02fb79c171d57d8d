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
from repro.sim.protocol import CHANNELS, Port

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
        # Probe counters for the invariant checker: every demand/engine port
        # call bumps one of these, whether or not an observing facade
        # wrapped the port.
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
        # A line's owning array is its number's high bits: the integer
        # ``layout.array_of_line`` wraps in an ``ArrayId``.
        self._array_shift = MemoryLayout._REGION_SHIFT - self.layout._line_shift

    # -- internal helpers ---------------------------------------------------

    def _l2_miss(self, core: int, array: ArrayId, line: int) -> int:
        """Serve an L2 miss from the shared L3, or from DRAM on an L3 miss.

        Returns the latency past the L2: the NoC round trip to the line's
        L3 bank and, on an L3 miss, the DRAM fetch, which is attributed to
        ``array`` and filled into the L3.  The demand and the engine path
        both end here, so every DRAM fetch is counted in this one place.
        """
        banks = self.config.l3_banks
        bank = line % banks
        key = core * banks + bank
        latency = self._l3_latency_cache.get(key)
        if latency is None:
            # Banks are striped across mesh tiles.
            tiles = self.noc.num_tiles
            tile = (bank * max(1, tiles // banks)) % tiles
            latency = self.noc.round_trip(core, tile) + self.config.l3_latency
            self._l3_latency_cache[key] = latency
        if not self.l3.lookup(line):
            latency += self.dram.record_access()
            self.dram_by_array[array] += 1
            self._fill_l3(line)
        return latency

    def _writeback_to_dram(self, line: int) -> None:
        """Retire a dirty line to memory, attributed to its owning array."""
        self.dram_writebacks_by_array[line >> self._array_shift] += 1
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

    # -- ports: the one access path -------------------------------------------
    #
    # Every access enters through a port: a closure bound to one (core,
    # array, channel) with the line arithmetic, the set dicts, the stats
    # object and the latencies already resolved, so each access is one call
    # with one integer argument.  There are two bodies — the demand body
    # (read/write/serial: the core's L1 path) and the engine body (the
    # decoupled engine's L2 path).  Their L1/L2 *hit* paths are inlined over
    # the cache's dict sets rather than going through ``Cache.lookup``/
    # ``mark_dirty``: the same operations (promote to MRU, bump the hit
    # counter, set the dirty bit), minus two calls per probe on the path
    # that serves most accesses.

    def port(
        self,
        core: int,
        array: ArrayId,
        channel: str,
        acc: list[float] | None = None,
    ) -> Port:
        """Bind ``port(index) -> latency`` for one core, array and channel.

        ``channel`` is one of :data:`~repro.sim.protocol.CHANNELS`: ``read``,
        ``write`` and ``serial`` take the core's demand path (``serial`` is a
        read); ``engine`` takes the decoupled engine's path, which probes
        and fills the L2, never the core's L1.  A demand port adds each
        latency to ``acc[core]`` (a per-core accumulator list) when ``acc``
        is given; an engine port charges nothing.
        """
        if channel == "engine":
            if acc is not None:
                raise ValueError("engine accesses charge no accumulator")
            return self._engine_port(core, array)
        if channel not in CHANNELS:
            raise ValueError(
                f"unknown channel {channel!r}; expected one of {CHANNELS}"
            )
        if acc is None:
            # Uncharged: a scratch accumulator keeps the body branch-free.
            acc = [0.0] * self.config.num_cores
        return self._demand_port(core, array, channel == "write", acc)

    def _demand_port(
        self, core: int, array: ArrayId, write: bool, acc: list[float]
    ) -> Port:
        """The demand body: L1, then :meth:`_demand_miss`.

        Under ``track_coherence`` the directory sees every access before
        the L1 probe.
        """
        layout = self.layout
        base = layout._line_base[array]
        elem_bytes = layout._elem_bytes[array]
        shift = layout._line_shift
        coherence = self.coherence
        on_access: Callable[[int, int], None] | None = None
        if coherence is not None:
            on_access = coherence.on_write if write else coherence.on_read
        l1 = self.l1[core]
        sets = l1._sets
        num_sets = l1.num_sets
        stats = l1.stats
        dirty_lines = l1._dirty
        l1_latency = self._l1_latency
        demand_miss = self._demand_miss

        def demand(index: int) -> int:
            line = base + ((index * elem_bytes) >> shift)
            self.demand_probes += 1
            if on_access is not None:
                on_access(core, line)
            ways = sets[line % num_sets]
            if line in ways:
                del ways[line]
                ways[line] = None
                stats.hits += 1
                if write:
                    dirty_lines.add(line)
                acc[core] += l1_latency
                return l1_latency
            stats.misses += 1
            latency = demand_miss(core, array, line, write)
            acc[core] += latency
            return latency

        return demand

    def _demand_miss(self, core: int, array: ArrayId, line: int, write: bool) -> int:
        """The demand path past an L1 miss.

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
            latency += self._l2_miss(core, array, line)
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

    def _engine_port(self, core: int, array: ArrayId) -> Port:
        """The engine body: L2, then :meth:`_engine_miss`.

        ChGraph sits beside the L1 but "accesses the main memory via the L2
        cache" (§V-A): it probes L2 directly and fills L2 (never the core's
        L1), so prefetched lines land where the core's demand misses will
        find them without polluting the L1.
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

        def engine(index: int) -> int:
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

        return engine

    def _engine_miss(self, core: int, array: ArrayId, line: int) -> int:
        """The engine path past an L2 miss."""
        latency = self._l2_latency + self._l2_miss(core, array, line)
        if self.coherence is not None:
            self.coherence.on_read(core, line)
        self._fill_l2(core, line)
        if self._inclusive:
            self._note_owner(line, core)
        return latency

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
