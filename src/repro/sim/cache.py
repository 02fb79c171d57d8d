"""A set-associative cache model with LRU replacement — O(1) per probe.

This is the functional building block of the Table I hierarchy.  It tracks
presence only (no data), which is all that hit/miss accounting needs; MESI
state is reduced to a valid/dirty bit per line because the engines modelled
here are synchronous (the paper notes ChGraph has "no coherency issues" —
updates from an iteration are only read in the next one).

Each set is a ``dict[int, None]`` exploiting insertion order as the
recency order: the LRU line is the first key, the MRU line the last, and a
promote is ``del`` + re-insert — every operation (``lookup``/``fill``/
``victim_of``/``invalidate``/``mark_dirty``) is O(1) instead of the
O(associativity) ``list.remove``/``list.append`` scans of the original
implementation, which is preserved verbatim as a test oracle under
``tests/sim/`` and differential-tested against this one
(``tests/sim/test_cache_differential.py``).  A dict that only ever sees
``del`` + insert of the same key set never rehashes pathologically, and its
iteration order equals the reference list's recency order exactly, so even
``resident_lines()`` is order-identical.
"""

from __future__ import annotations

__all__ = ["Cache", "CacheStats"]


class CacheStats:
    """Hit/miss counters for one cache."""

    __slots__ = ("hits", "misses", "evictions", "writebacks")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.3f})"
        )


class Cache:
    """A set-associative LRU cache over line numbers.

    The cache is indexed by *line number* (byte address / line size); the
    caller is responsible for that translation, which lets one ``Cache``
    instance serve any level of the hierarchy.
    """

    def __init__(self, size_bytes: int, associativity: int, line_size: int) -> None:
        if size_bytes % (associativity * line_size):
            raise ValueError(
                f"cache size {size_bytes} not divisible by way size "
                f"{associativity * line_size}"
            )
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.num_sets = size_bytes // (associativity * line_size)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        # Each set is a recency-ordered dict of line numbers (LRU first,
        # MRU last), with a parallel dirty-line set.
        self._sets: list[dict[int, None]] = [{} for _ in range(self.num_sets)]
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    def lookup(self, line: int) -> bool:
        """Probe without allocating; promotes to MRU on hit."""
        ways = self._sets[line % self.num_sets]
        if line in ways:
            del ways[line]
            ways[line] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, line: int, dirty: bool = False) -> int | None:
        """Insert ``line``; returns the evicted line number, if any.

        ``dirty`` marks the incoming line as modified (a write-allocate).
        A dirty victim bumps the writeback counter before being returned.
        """
        ways = self._sets[line % self.num_sets]
        if line in ways:  # refill of a present line: just promote
            del ways[line]
            ways[line] = None
            if dirty:
                self._dirty.add(line)
            return None
        victim = None
        if len(ways) >= self.associativity:
            victim = next(iter(ways))  # LRU = oldest insertion
            del ways[victim]
            self.stats.evictions += 1
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.stats.writebacks += 1
        ways[line] = None
        if dirty:
            self._dirty.add(line)
        return victim

    def access(self, line: int, write: bool = False) -> bool:
        """Probe and, on miss, allocate.  Returns hit/miss."""
        hit = self.lookup(line)
        if hit:
            if write:
                self._dirty.add(line)
        else:
            self.fill(line, dirty=write)
        return hit

    def invalidate(self, line: int) -> bool:
        """Drop a line if present (used for inclusive-L3 back-invalidation).

        Discards the line's dirty bit with it: the *caller* is responsible
        for checking :meth:`is_dirty` first and writing the line back down
        the hierarchy — see ``MemoryHierarchy._back_invalidate``.
        """
        ways = self._sets[line % self.num_sets]
        if line in ways:
            del ways[line]
            self._dirty.discard(line)
            return True
        return False

    def contains(self, line: int) -> bool:
        """Presence check without touching LRU order or stats."""
        return line in self._sets[line % self.num_sets]

    def victim_of(self, line: int) -> int | None:
        """The line :meth:`fill` would evict for ``line``, without filling.

        ``None`` when the fill would not evict (line already present, or
        the set has a free way).  Touches neither LRU order nor stats, so
        callers can inspect the victim's dirty bit *before* the fill
        discards it.
        """
        ways = self._sets[line % self.num_sets]
        if line in ways or len(ways) < self.associativity:
            return None
        return next(iter(ways))

    def is_dirty(self, line: int) -> bool:
        """Dirty-bit check without touching LRU order or stats."""
        return line in self._dirty

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit of a *resident* line without touching LRU order.

        This is how a victim written back from a smaller cache lands here:
        the line's data is already present (the hierarchy fills downward on
        the original miss), so absorbing the writeback updates state only.
        Returns ``False`` (and does nothing) when the line is not resident.
        """
        if line not in self._sets[line % self.num_sets]:
            return False
        self._dirty.add(line)
        return True

    def resident_lines(self) -> list[int]:
        """All currently cached line numbers (for tests and invariants)."""
        return [line for ways in self._sets for line in ways]

    def dirty_lines(self) -> list[int]:
        """All currently dirty line numbers (for tests and invariants)."""
        return sorted(self._dirty)

    def max_set_occupancy(self) -> int:
        """Occupancy of the fullest set (invariant: <= associativity)."""
        return max((len(ways) for ways in self._sets), default=0)

    def reset_stats(self) -> None:
        # Zeroed in place: the hierarchy's pre-bound probers hold this object.
        stats = self.stats
        stats.hits = stats.misses = stats.evictions = stats.writebacks = 0

    def __repr__(self) -> str:
        return (
            f"Cache({self.size_bytes}B, {self.associativity}-way, "
            f"{self.num_sets} sets)"
        )
