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
        # Hot-path constants hoisted out of per-access attribute chains.
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._inclusive = config.inclusive_l3
        # Latency past an L2 miss before any DRAM fetch, per core and L3
        # bank: the NoC round trip to the bank's tile (banks are striped
        # across mesh tiles) plus the L3 latency.
        banks = config.l3_banks
        tiles = self.noc.num_tiles
        stride = max(1, tiles // banks)
        self._l3_banks = banks
        self._l3_latency = [
            [
                self.noc.round_trip(core, (bank * stride) % tiles)
                + config.l3_latency
                for bank in range(banks)
            ]
            for core in range(config.num_cores)
        ]
        # A line's owning array is its number's high bits: the integer
        # ``layout.array_of_line`` wraps in an ``ArrayId``.
        self._array_shift = MemoryLayout._REGION_SHIFT - self.layout._line_shift

    # -- internal helpers ---------------------------------------------------

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

    # -- the miss path: one body past the L2 ----------------------------------
    #
    # The fills below manipulate the caches' recency dicts directly rather
    # than composing ``victim_of`` + ``is_dirty`` + ``fill``: same victim
    # choice (the first key, taken with ``for victim in ways: break``), same
    # stats bumps, same dirty-bit handling, without the calls.  Each fill
    # runs with ``line`` absent from the cache it fills (the caller just
    # took the miss, and back-invalidation only *removes* lines), so every
    # victim is another line.
    #
    # Under ``inclusive_l3`` a core is noted as an owner of every line its
    # L2 fills, and pruned from a victim's owners once neither of its
    # private caches holds that line.  A demand L2 hit therefore needs no
    # note: the core already owns the line its L2 holds.

    def _l2_miss(self, core: int, array: ArrayId, line: int) -> int:
        """Serve an L2 miss on either channel and fill the core's L2.

        Returns the latency past the L2: the NoC round trip to the line's
        L3 bank, the L3 latency and, on an L3 miss, the DRAM fetch, which
        is attributed to ``array`` and filled into the L3 (a dirty victim,
        or one with a dirty private copy under inclusion, is written back
        to memory).  The L2 fill then tells the directory about its victim;
        a dirty victim is absorbed by the L3 copy or written back.  Both
        channels end here, so every DRAM fetch is counted in this one place.
        """
        latency = self._l3_latency[core][line % self._l3_banks]
        inclusive = self._inclusive
        l3 = self.l3
        l3_sets = l3._sets
        l3_num_sets = l3.num_sets
        ways = l3_sets[line % l3_num_sets]
        if line in ways:
            del ways[line]
            ways[line] = None
            l3.stats.hits += 1
        else:
            l3.stats.misses += 1
            latency += self.dram.record_access()
            self.dram_by_array[array] += 1
            if len(ways) >= l3.associativity:
                for victim in ways:
                    break
                del ways[victim]
                l3.stats.evictions += 1
                dirty = victim in l3._dirty
                if dirty:
                    l3._dirty.discard(victim)
                    l3.stats.writebacks += 1
                if inclusive and self._back_invalidate(victim):
                    dirty = True
                if dirty:
                    self._writeback_to_dram(victim)
            ways[line] = None

        l2 = self.l2[core]
        ways = l2._sets[line % l2.num_sets]
        if len(ways) >= l2.associativity:
            for victim in ways:
                break
            del ways[victim]
            l2.stats.evictions += 1
            if self.coherence is not None:
                self.coherence.on_evict(core, victim)
            if victim in l2._dirty:
                l2._dirty.discard(victim)
                l2.stats.writebacks += 1
                if victim in l3_sets[victim % l3_num_sets]:
                    l3._dirty.add(victim)
                else:
                    self._writeback_to_dram(victim)
            if inclusive:
                l1 = self.l1[core]
                if victim not in l1._sets[victim % l1.num_sets]:
                    owners = self._owners.get(victim)
                    if owners is not None:
                        owners.discard(core)
                        if not owners:
                            del self._owners[victim]
        ways[line] = None
        if inclusive:
            owners = self._owners.get(line)
            if owners is None:
                self._owners[line] = {core}
            else:
                owners.add(core)
        return latency

    # -- ports: the one access path -------------------------------------------
    #
    # Every access enters through a port: a closure bound to one (core,
    # array, channel) with the line arithmetic, the set dicts, the stats
    # objects and the latencies already resolved, so each access is one call
    # with one integer argument.  There are two bodies — the demand body
    # (read/write/serial: the core's L1, then L2) and the engine body (the
    # decoupled engine's L2) — and both hand an L2 miss to ``_l2_miss``.
    # Their probes and the demand body's L1 fill are inlined over the
    # caches' dict sets rather than going through ``Cache.lookup``/
    # ``fill``/``mark_dirty``: the same operations (promote to MRU, bump
    # the counters, set the dirty bit), minus the calls on every access.

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
        """The demand body: L1, then L2, then :meth:`_l2_miss`.

        Under ``track_coherence`` the directory sees every access before
        the L1 probe.  Every L1 miss ends in the L1 fill: a dirty victim is
        absorbed by the copy in L2, else L3, else written back to memory
        directly.
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
        associativity = l1.associativity
        stats = l1.stats
        dirty_lines = l1._dirty
        l2 = self.l2[core]
        l2_sets = l2._sets
        l2_num_sets = l2.num_sets
        l2_stats = l2.stats
        l2_dirty = l2._dirty
        l3_sets = self.l3._sets
        l3_num_sets = self.l3.num_sets
        l3_dirty = self.l3._dirty
        l1_latency = self._l1_latency
        l1_miss_latency = l1_latency + self._l2_latency
        inclusive = self._inclusive
        owner_sets = self._owners
        l2_miss = self._l2_miss
        writeback = self._writeback_to_dram

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
            l2_ways = l2_sets[line % l2_num_sets]
            if line in l2_ways:
                del l2_ways[line]
                l2_ways[line] = None
                l2_stats.hits += 1
                latency = l1_miss_latency
            else:
                l2_stats.misses += 1
                latency = l1_miss_latency + l2_miss(core, array, line)
            # ``ways`` is still this line's L1 set: back-invalidation in
            # ``_l2_miss`` deletes from set dicts but never replaces them.
            if len(ways) >= associativity:
                for victim in ways:
                    break
                del ways[victim]
                stats.evictions += 1
                in_l2 = victim in l2_sets[victim % l2_num_sets]
                if victim in dirty_lines:
                    dirty_lines.discard(victim)
                    stats.writebacks += 1
                    if in_l2:
                        l2_dirty.add(victim)
                    elif victim in l3_sets[victim % l3_num_sets]:
                        l3_dirty.add(victim)
                    else:
                        writeback(victim)
                if inclusive and not in_l2:
                    owners = owner_sets.get(victim)
                    if owners is not None:
                        owners.discard(core)
                        if not owners:
                            del owner_sets[victim]
            ways[line] = None
            if write:
                dirty_lines.add(line)
            acc[core] += latency
            return latency

        return demand

    def _engine_port(self, core: int, array: ArrayId) -> Port:
        """The engine body: L2, then :meth:`_l2_miss`.

        ChGraph sits beside the L1 but "accesses the main memory via the L2
        cache" (§V-A): it probes L2 directly and fills L2 (never the core's
        L1), so prefetched lines land where the core's demand misses will
        find them without polluting the L1.  Under ``track_coherence`` the
        directory sees every L2 miss as a read before the fills.
        """
        layout = self.layout
        base = layout._line_base[array]
        elem_bytes = layout._elem_bytes[array]
        shift = layout._line_shift
        on_read = None if self.coherence is None else self.coherence.on_read
        l2 = self.l2[core]
        sets = l2._sets
        num_sets = l2.num_sets
        stats = l2.stats
        l2_latency = self._l2_latency
        l2_miss = self._l2_miss

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
            if on_read is not None:
                on_read(core, line)
            return l2_latency + l2_miss(core, array, line)

        return engine

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
