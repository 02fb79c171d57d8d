"""The simulated system facade used by all execution engines.

Bundles the cache hierarchy, the phase timer and the energy model behind
three operations engines actually use: ``read``, ``write`` and
``charge_compute``, plus ``barrier`` at phase ends.  Reads/writes charge
their latency to the issuing core's *demand* stream; engines modelling a
decoupled access engine (ChGraph) probe ``hierarchy.engine_access`` and
charge the result with ``charge_engine``, which feeds the engine-side
accumulator so the core and engine overlap.

This is the reference implementation of the
:class:`~repro.sim.protocol.MemorySystem` protocol — the typed boundary
every execution engine is written against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.config import SystemConfig
from repro.sim.energy import EnergyModel, EnergyReport
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId
from repro.sim.timing import PhaseTimer, TimingBreakdown

if TYPE_CHECKING:
    from repro.sim.protocol import EngineEvent

__all__ = ["SimulatedSystem"]


class SimulatedSystem:
    """One simulation instance: config + hierarchy + timing + energy."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        self.timer = PhaseTimer(config)
        self.energy_model = EnergyModel()
        self.total_compute_cycles = 0.0
        # DRAM line count (fetches + writebacks) at the last barrier, for
        # per-phase bandwidth-contention accounting.
        self._phase_dram_mark = 0
        # Charging fast path: the timer's per-core accumulator lists are
        # reset *in place* at barriers, so these references stay valid for
        # the whole run and each charge is one indexed add, not a method
        # call into the timer.
        self._memory_acc = self.timer._memory
        self._compute_acc = self.timer._compute
        self._engine_acc = self.timer._engine

    # -- demand-side accesses (the general-purpose core) --------------------

    def read(self, core: int, array: ArrayId, index: int) -> int:
        latency = self.hierarchy.access(core, array, index, write=False)
        self._memory_acc[core] += latency
        return latency

    def write(self, core: int, array: ArrayId, index: int) -> int:
        latency = self.hierarchy.access(core, array, index, write=True)
        self._memory_acc[core] += latency
        return latency

    def read_serial(self, core: int, array: ArrayId, index: int) -> int:
        """A dependency-chained read (pointer chasing): the core cannot
        overlap it with other misses, so its full latency is serial time."""
        latency = self.hierarchy.access(core, array, index, write=False)
        self._compute_acc[core] += latency
        return latency

    # -- batched demand accesses ---------------------------------------------
    #
    # ``read_block``/``write_block`` fold the per-element charges into one
    # ``charge_memory`` call.  That grouping is exact, not approximate:
    # hierarchy latencies are ints, and the timer's float accumulator adds
    # integer-valued floats, which is associative below 2**53.
    # ``read_serial_block`` must NOT fold: serial reads charge the *compute*
    # accumulator, which also receives arbitrary float costs from the
    # engines, so per-element addition order is part of the bit-identity
    # contract — it stays a plain loop over :meth:`read_serial`.

    def read_block(self, core: int, array: ArrayId, start: int, count: int) -> int:
        latency = self.hierarchy.access_block(core, array, start, count, write=False)
        self._memory_acc[core] += latency
        return latency

    def write_block(self, core: int, array: ArrayId, start: int, count: int) -> int:
        latency = self.hierarchy.access_block(core, array, start, count, write=True)
        self._memory_acc[core] += latency
        return latency

    def read_serial_block(
        self, core: int, array: ArrayId, start: int, count: int
    ) -> int:
        total = 0
        for index in range(start, start + count):
            total += self.read_serial(core, array, index)
        return total

    def charge_compute(self, core: int, cycles: float) -> None:
        self._compute_acc[core] += cycles
        self.total_compute_cycles += cycles

    def charge_compute_run(self, core: int, cycles: float, count: int) -> None:
        """Charge ``cycles`` to ``core`` ``count`` times in a row.

        Engines use this to batch a run of identical per-tuple charges into
        one call.  The accumulators still receive the same *sequence* of
        float additions as ``count`` separate ``charge_compute`` calls —
        per-tuple costs are non-integer floats (e.g. 6·1.3 + 1), so the sum
        may NOT be regrouped as ``count * cycles`` — only the Python call
        overhead is batched away.
        """
        acc = self._compute_acc[core]
        total = self.total_compute_cycles
        for _ in range(count):
            acc += cycles
            total += cycles
        self._compute_acc[core] = acc
        self.total_compute_cycles = total

    def demand_writer(self, core: int, array: ArrayId):
        """A bound ``write_one(index) -> latency`` for one (core, array).

        Same accounting as :meth:`write`, with the hierarchy's L1 write-hit
        path and the timer charge fused into one closure — the engines'
        per-tuple destination-value write is the single hottest demand
        access.  Coherence-tracking configs defer to :meth:`write` (the
        coherence hook must run before the L1 probe).
        """
        hierarchy = self.hierarchy
        acc = self._memory_acc
        if hierarchy.coherence is not None:
            access = hierarchy.access

            def write_coherent(index: int) -> int:
                latency = access(core, array, index, True)
                acc[core] += latency
                return latency

            return write_coherent
        layout = hierarchy.layout
        base = layout._line_base[array]
        elem_bytes = layout._elem_bytes[array]
        shift = layout._line_shift
        l1 = hierarchy.l1[core]
        sets = l1._sets
        num_sets = l1.num_sets
        stats = l1.stats
        dirty_lines = l1._dirty
        l1_latency = hierarchy._l1_latency
        demand_miss = hierarchy._demand_miss

        def write_one(index: int) -> int:
            line = base + ((index * elem_bytes) >> shift)
            hierarchy.demand_probes += 1
            ways = sets[line % num_sets]
            if line in ways:
                del ways[line]
                ways[line] = None
                stats.hits += 1
                dirty_lines.add(line)
                acc[core] += l1_latency
                return l1_latency
            stats.misses += 1
            latency = demand_miss(core, array, line, True)
            acc[core] += latency
            return latency

        return write_one

    # -- engine-side charges (ChGraph's HCG / CP) ---------------------------

    def charge_engine(self, core: int, cycles: float) -> None:
        self._engine_acc[core] += cycles

    # -- phases ---------------------------------------------------------------

    def barrier(self) -> float:
        dram = self.hierarchy.dram
        if not self.config.dram_contention:
            self._phase_dram_mark = dram.accesses + dram.writes
            return self.timer.barrier()
        lines = dram.accesses + dram.writes
        phase_lines = lines - self._phase_dram_mark
        self._phase_dram_mark = lines
        return self.timer.barrier(dram=dram, dram_lines=phase_lines)

    def on_event(self, event: "EngineEvent") -> None:
        """Engine-loop boundary events charge nothing on a plain system."""

    # -- results ----------------------------------------------------------------

    @property
    def breakdown(self) -> TimingBreakdown:
        return self.timer.breakdown

    @property
    def total_cycles(self) -> float:
        return self.timer.breakdown.total_cycles

    def dram_accesses(self) -> int:
        return self.hierarchy.dram_accesses()

    def dram_breakdown(self) -> dict[ArrayId, int]:
        return self.hierarchy.dram_breakdown()

    def dram_writebacks(self) -> int:
        return self.hierarchy.writebacks()

    def dram_writeback_breakdown(self) -> dict[ArrayId, int]:
        return self.hierarchy.writeback_breakdown()

    def energy(self) -> EnergyReport:
        return self.energy_model.report(self.hierarchy, self.total_compute_cycles)
