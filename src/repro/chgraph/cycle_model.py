"""Cycle-level timing model of one ChGraph engine + core (§VI-A).

The paper evaluates ChGraph with "a cycle-accurate simulator ... designed to
model the microarchitecture behavior of ChGraph".  The execution engines in
:mod:`repro.engine` use closed-form cost accounting for speed; this module
provides the detailed counterpart: an exact timing recurrence over the three
serial units — HCG, CP, core — coupled by the two bounded FIFOs, with the
CP's memory-level parallelism modelled as a finite pool of outstanding-miss
slots (MSHRs) rather than a divisor.

Because each unit processes its operations in order, pipeline timing needs
no per-cycle stepping: each operation's completion time is a recurrence over
(unit previous completion, upstream data-ready time, downstream FIFO space),
which is exact for this topology and fast enough to run inside tests.

The ``ablation_cycle_model`` figure cross-validates the engines'
closed-form estimates against this model.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.chain import ChainGenerator, ChainProbe
from repro.core.oag import Oag
from repro.hypergraph.hypergraph import Hypergraph
from repro.sim.config import SystemConfig

__all__ = ["ChainMicroOp", "CycleStats", "record_hcg_microops", "simulate_phase"]

#: HCG micro-op kinds, one per pipeline stage activation.
ROOT_SCAN = "root_scan"
OFFSETS = "offsets"
INSPECT = "inspect"
SELECT = "select"


@dataclasses.dataclass(frozen=True)
class ChainMicroOp:
    """One HCG pipeline step; ``element`` is set on SELECT ops."""

    kind: str
    memory_accesses: int
    element: int = -1


@dataclasses.dataclass
class CycleStats:
    """Timing outcome of one chunk-phase under the cycle model."""

    total_cycles: float
    hcg_busy_until: float
    cp_busy_until: float
    core_busy_cycles: float
    tuples: int
    chain_fifo_peak: int
    tuple_fifo_peak: int
    core_stalled_cycles: float

    @property
    def core_utilization(self) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return self.core_busy_cycles / self.total_cycles


class _RecordingProbe(ChainProbe):
    """Captures the HCG micro-op sequence for one chunk."""

    def __init__(self, dense: bool) -> None:
        self.ops: list[ChainMicroOp] = []
        self.dense = dense

    def on_root_scan(self, element: int) -> None:
        self.ops.append(ChainMicroOp(ROOT_SCAN, 0 if self.dense else 1))

    def on_offsets_fetch(self, node: int) -> None:
        self.ops.append(ChainMicroOp(OFFSETS, 2))

    def on_neighbor_inspect(self, node: int, position: int) -> None:
        self.ops.append(ChainMicroOp(INSPECT, 1))

    def on_select(self, element: int) -> None:
        self.ops.append(ChainMicroOp(SELECT, 0, element=element))


def record_hcg_microops(
    active: np.ndarray,
    oag: Oag,
    d_max: int = 16,
    dense: bool = False,
) -> list[ChainMicroOp]:
    """The HCG's micro-op stream for one chunk (semantics = Algorithm 3)."""
    probe = _RecordingProbe(dense)
    ChainGenerator(d_max=d_max).generate(active, oag, probe=probe)
    return probe.ops


class _MshrPool:
    """A finite pool of outstanding-request slots (min-heap of free times)."""

    def __init__(self, slots: int) -> None:
        self._free: list[float] = [0.0] * max(1, slots)
        heapq.heapify(self._free)

    def issue(self, ready: float, latency: float) -> float:
        """Issue at ``max(ready, earliest free slot)``; returns completion."""
        slot_free = heapq.heappop(self._free)
        start = max(ready, slot_free)
        done = start + latency
        heapq.heappush(self._free, done)
        return done


def simulate_phase(
    microops: Sequence[ChainMicroOp],
    hypergraph: Hypergraph,
    side: str,
    config: SystemConfig,
    hcg_latency: Callable[[], float],
    cp_latency: Callable[[], float],
    apply_cycles: float | None = None,
) -> CycleStats:
    """Run the HCG -> chain FIFO -> CP -> tuple FIFO -> core recurrence.

    ``hcg_latency()`` / ``cp_latency()`` sample per-access memory latencies
    (constants, or draws from a measured distribution).  The HCG's OAG walk
    is dependency-chained, so its accesses serialize; the CP's prefetches
    share a ``config.engine_mlp``-slot MSHR pool.
    """
    if apply_cycles is None:
        apply_cycles = float(config.apply_cycles + config.fifo_pop_cycles)
    stage = config.hw_stage_cycles
    chain_depth = config.chain_fifo_depth
    tuple_depth = config.tuple_fifo_depth
    csr = hypergraph.side(side)

    # --- HCG: serial micro-ops; SELECTs push into the chain FIFO. ---------
    chain_push: list[float] = []  # push time of each chain entry
    elements: list[int] = []
    hcg_time = 0.0

    # Every unit is in-order, so a single forward interleave suffices: CP,
    # tuple-FIFO and core times are computed lazily as chain entries appear.
    mshrs = _MshrPool(int(config.engine_mlp))
    cp_time = 0.0
    tuple_push: list[float] = []
    core_time = 0.0
    core_busy = 0.0
    core_pop: list[float] = []
    tuples = 0
    chain_fifo_peak = 0

    def cp_consume(entry_index: int) -> None:
        """CP processes chain entry ``entry_index`` end to end."""
        nonlocal cp_time, core_time, core_busy, tuples
        element = elements[entry_index]
        # Element acquisition + the three source-side loads.
        cp_ready = max(cp_time, chain_push[entry_index]) + stage
        done = cp_ready
        for _ in range(3):
            done = max(done, mshrs.issue(cp_ready, cp_latency()))
        cp_time = cp_ready
        start, end = csr.row_slice(element)
        for _ in range(start, end):
            issue = cp_time + stage
            completion = mshrs.issue(issue, cp_latency())
            completion = max(completion, mshrs.issue(issue, cp_latency()))
            cp_time = issue
            ready = max(completion, done)
            # Tuple FIFO backpressure: wait for a slot.
            if len(tuple_push) >= tuple_depth:
                ready = max(ready, core_pop[len(tuple_push) - tuple_depth])
            tuple_push.append(ready)
            # Core pops in order.
            pop = max(core_time, ready) + apply_cycles
            core_pop.append(pop)
            core_busy += apply_cycles
            core_time = pop
            tuples += 1

    entry_index = 0
    for op in microops:
        cost = stage
        if op.kind == SELECT:
            hcg_time += cost
            # Chain FIFO backpressure.
            push = hcg_time
            if len(chain_push) >= chain_depth:
                # Wait until the CP has popped far enough; force-consume.
                while entry_index <= len(chain_push) - chain_depth:
                    cp_consume(entry_index)
                    entry_index += 1
                push = max(push, cp_time)
            chain_push.append(push)
            elements.append(op.element)
            chain_fifo_peak = max(chain_fifo_peak, len(chain_push) - entry_index)
            hcg_time = push
        else:
            # Dependency-chained walk: each access serializes.
            hcg_time += cost
            for _ in range(op.memory_accesses):
                hcg_time += hcg_latency()
    # Drain remaining chain entries through the CP and core.
    while entry_index < len(chain_push):
        cp_consume(entry_index)
        entry_index += 1

    # Tuple-FIFO peak occupancy from the push/pop timelines.
    events = [(t, +1) for t in tuple_push] + [(t, -1) for t in core_pop]
    occupancy = 0
    tuple_fifo_peak = 0
    for _, delta in sorted(events):
        occupancy += delta
        tuple_fifo_peak = max(tuple_fifo_peak, occupancy)

    total = max(hcg_time, cp_time, core_time)
    return CycleStats(
        total_cycles=total,
        hcg_busy_until=hcg_time,
        cp_busy_until=cp_time,
        core_busy_cycles=core_busy,
        tuples=tuples,
        chain_fifo_peak=chain_fifo_peak,
        tuple_fifo_peak=min(tuple_fifo_peak, tuple_depth),
        core_stalled_cycles=max(0.0, core_time - core_busy),
    )
