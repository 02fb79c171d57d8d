"""The simulated system facade used by all execution engines.

Bundles the cache hierarchy, the phase timer and the energy model behind
what engines actually use: bound access ports, ``charge_compute`` and
``barrier`` at phase ends.  :meth:`SimulatedSystem.port` binds the
hierarchy's port with the timer accumulator its channel charges fused in:
``read``/``write`` latency lands on the issuing core's *memory* stalls,
``serial`` latency on its compute time, and ``engine`` accesses charge
nothing — a decoupled access engine (ChGraph) sums its own latencies and
charges its busy time with ``charge_engine``, which feeds the engine-side
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
    from repro.sim.protocol import EngineEvent, Port

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
        self._compute_acc = self.timer._compute
        self._engine_acc = self.timer._engine
        # The accumulator each port channel charges; engine ports charge
        # none.
        self._channel_acc = {
            "read": self.timer._memory,
            "write": self.timer._memory,
            "serial": self._compute_acc,
        }

    # -- accesses -------------------------------------------------------------

    def port(self, core: int, array: ArrayId, channel: str) -> "Port":
        """Bind ``port(index) -> latency`` for one core, array and channel.

        The hierarchy's port adds each latency to the channel's timer
        accumulator itself, one addition per access, so a ``serial`` read's
        latency joins the compute accumulator in exactly the order the
        engine issues it.
        """
        return self.hierarchy.port(
            core, array, channel, self._channel_acc.get(channel)
        )

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
