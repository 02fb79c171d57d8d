"""MESI directory coherence model (Table I: "MESI, in-cache directory").

The hierarchy's hit/miss accounting needs only presence and dirty bits for
the synchronous engines (see :mod:`repro.sim.hierarchy`), but Table I
specifies a full MESI protocol with an in-cache directory.  This module
models it: per-line sharer states across the private caches, with the
standard transitions, so that

* protocol invariants can be *checked* (at most one owner in M/E; an owner
  excludes sharers), and
* coherence *traffic* can be measured — invalidations on write-sharing and
  owner downgrades on read-sharing — which quantifies how much cross-core
  value sharing each scheduler causes.

Enable per hierarchy with ``SystemConfig(track_coherence=True)``; tracking
is off by default because the engines' results and timings do not depend on
it (synchronous phases have no intra-phase read-after-remote-write).
"""

from __future__ import annotations

import dataclasses

from repro.records import Record

__all__ = ["MesiDirectory", "CoherenceStats", "MODIFIED", "EXCLUSIVE", "SHARED"]

MODIFIED = "M"
EXCLUSIVE = "E"
SHARED = "S"
# Invalid is represented by absence from the sharer table.


@dataclasses.dataclass
class CoherenceStats(Record):
    """Protocol event counters."""

    invalidations: int = 0  # copies killed by a remote write
    downgrades: int = 0  # M/E owners demoted to S by a remote read
    ownership_transfers: int = 0  # write hits on S (upgrade) or remote M
    read_misses_served_remote: int = 0  # reads that found a remote owner


class MesiDirectory:
    """Directory of per-line sharer states across private caches."""

    def __init__(self) -> None:
        self._sharers: dict[int, dict[int, str]] = {}
        self.stats = CoherenceStats()

    # -- protocol events ----------------------------------------------------

    def on_read(self, core: int, line: int) -> None:
        """Core loads ``line``: join the sharers, demoting any remote owner."""
        sharers = self._sharers.setdefault(line, {})
        if core in sharers:
            return  # read hit on a valid copy: no transition
        remote_owner = any(
            state in (MODIFIED, EXCLUSIVE) and owner != core
            for owner, state in sharers.items()
        )
        if remote_owner:
            self.stats.read_misses_served_remote += 1
            for owner, state in list(sharers.items()):
                if state in (MODIFIED, EXCLUSIVE):
                    sharers[owner] = SHARED
                    self.stats.downgrades += 1
        sharers[core] = EXCLUSIVE if not sharers else SHARED
        if len(sharers) > 1:
            # Everyone holding the line alongside others is a sharer.
            for owner in sharers:
                sharers[owner] = SHARED

    def on_write(self, core: int, line: int) -> None:
        """Core stores to ``line``: invalidate every other copy, own in M."""
        sharers = self._sharers.setdefault(line, {})
        state = sharers.get(core)
        others = [owner for owner in sharers if owner != core]
        if others:
            for owner in others:
                del sharers[owner]
                self.stats.invalidations += 1
            self.stats.ownership_transfers += 1
        elif state == SHARED:
            self.stats.ownership_transfers += 1  # upgrade S -> M
        sharers[core] = MODIFIED

    def on_evict(self, core: int, line: int) -> None:
        """Core drops its copy (capacity eviction or back-invalidation)."""
        sharers = self._sharers.get(line)
        if sharers and core in sharers:
            del sharers[core]
            if not sharers:
                del self._sharers[line]
            elif len(sharers) == 1:
                # A sole surviving sharer silently owns the line again.
                (owner,) = sharers
                if sharers[owner] == SHARED:
                    sharers[owner] = EXCLUSIVE

    # -- inspection ------------------------------------------------------------

    def state(self, core: int, line: int) -> str | None:
        return self._sharers.get(line, {}).get(core)

    def sharers_of(self, line: int) -> dict[int, str]:
        return dict(self._sharers.get(line, {}))

    def check_invariants(self) -> None:
        """Raise AssertionError if any MESI invariant is violated."""
        for line, sharers in self._sharers.items():
            owners = [c for c, s in sharers.items() if s in (MODIFIED, EXCLUSIVE)]
            assert len(owners) <= 1, f"line {line}: multiple owners {owners}"
            if owners:
                assert len(sharers) == 1, (
                    f"line {line}: owner {owners[0]} coexists with sharers "
                    f"{sorted(sharers)}"
                )
