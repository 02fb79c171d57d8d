"""InstrumentedSystem: observation must never perturb the simulation."""

from __future__ import annotations

import numpy as np

from repro.algorithms.pagerank import PageRank
from repro.algorithms.bfs import Bfs
from repro.engine.chgraph_engine import ChGraphEngine
from repro.engine.hygra import HygraEngine
from repro.sim import (
    InstrumentedSystem,
    IterationTimeline,
    NullSystem,
    Observer,
    PhaseProfiler,
    SimulatedSystem,
    TraceObserver,
    instrument,
    scaled_config,
)
from repro.sim.layout import ArrayId


def make_system() -> SimulatedSystem:
    return SimulatedSystem(scaled_config(num_cores=4, llc_kb=2))


def test_instrumented_run_is_bit_identical(small_hypergraph) -> None:
    algorithm = PageRank(iterations=2)
    plain = HygraEngine().run(algorithm, small_hypergraph, make_system())
    wrapped = InstrumentedSystem.profiled(make_system())
    profiled = HygraEngine().run(algorithm, small_hypergraph, wrapped)

    assert profiled.cycles == plain.cycles
    assert profiled.compute_cycles == plain.compute_cycles
    assert profiled.memory_stall_cycles == plain.memory_stall_cycles
    assert profiled.dram_accesses == plain.dram_accesses
    assert profiled.dram_by_array == plain.dram_by_array
    assert np.array_equal(profiled.result, plain.result)
    assert plain.telemetry is None
    assert profiled.telemetry is not None


def test_phase_profiler_totals_match_run(small_hypergraph) -> None:
    system = InstrumentedSystem.profiled(make_system())
    result = HygraEngine().run(PageRank(iterations=2), small_hypergraph, system)
    telemetry = result.telemetry

    assert set(telemetry.phases) == {"hyperedge", "vertex"}
    for profile in telemetry.phases.values():
        assert profile.activations == result.iterations
        assert profile.cycles > 0
        assert sum(profile.accesses.values()) > 0
    # Phase barrier cycles partition the run's total.
    total = sum(p.cycles for p in telemetry.phases.values())
    assert total == result.cycles
    # DRAM attribution partitions the run's DRAM traffic.
    dram = sum(p.dram_accesses for p in telemetry.phases.values())
    assert dram == result.dram_accesses


def test_iteration_timeline_frontiers(small_hypergraph) -> None:
    system = InstrumentedSystem.profiled(make_system())
    result = HygraEngine().run(Bfs(), small_hypergraph, system)
    timeline = result.telemetry.iterations

    assert len(timeline) == result.iterations
    first = timeline[0].phases[0]
    assert first.phase == "hyperedge"
    assert first.frontier_size == 1  # BFS starts from a single root
    assert 0.0 < first.frontier_density <= 1.0
    for iteration in timeline:
        assert [s.phase for s in iteration.phases] == ["hyperedge", "vertex"]
    cycles = sum(s.cycles for it in timeline for s in it.phases)
    assert cycles == result.cycles


def test_wrapper_delegates_identity_and_results() -> None:
    inner = NullSystem()
    system = InstrumentedSystem(inner)
    assert system.config is inner.config
    assert system.hierarchy is None
    assert system.total_cycles == 0.0
    assert system.dram_accesses() == 0
    assert system.telemetry().phases == {}
    assert system.observer(PhaseProfiler) is None
    profiler = system.add_observer(PhaseProfiler())
    assert system.observer(PhaseProfiler) is profiler
    assert system.observer(IterationTimeline) is None


def test_chgraph_fifo_stats_only_under_instrumentation(small_hypergraph) -> None:
    algorithm = PageRank(iterations=2)
    plain = ChGraphEngine().run(algorithm, small_hypergraph, make_system())
    assert plain.telemetry is None

    system = InstrumentedSystem.profiled(make_system())
    profiled = ChGraphEngine().run(algorithm, small_hypergraph, system)
    fifo = profiled.telemetry.fifo
    assert fifo["chain_fifo_depth"] == system.config.chain_fifo_depth
    assert 0 < fifo["chain_fifo_peak"] <= fifo["chain_fifo_depth"]
    assert fifo["max_chain_length"] >= fifo["chain_fifo_peak"]
    assert profiled.telemetry.chain_stats["chains"] > 0
    assert profiled.cycles == plain.cycles


def test_instrument_with_no_observers_returns_bare_system() -> None:
    """The zero-observer passthrough: unobserved runs must pay no wrapper
    dispatch, so ``instrument`` hands back the inner system itself."""
    system = make_system()
    assert instrument(system, []) is system
    assert instrument(system, None) is system
    wrapped = instrument(system, [PhaseProfiler()])
    assert isinstance(wrapped, InstrumentedSystem)
    assert wrapped.inner is system


class _ComputeCounter(Observer):
    def __init__(self) -> None:
        self.events: list[tuple[int, float]] = []

    def on_compute(self, core: int, cycles: float) -> None:
        self.events.append((core, cycles))


def test_charge_compute_run_forwards_one_event_per_charge() -> None:
    """Observers are promised one on_compute hook per charge — the batched
    entry point must not collapse them."""
    counter = _ComputeCounter()
    system = InstrumentedSystem(make_system(), [counter])
    system.charge_compute_run(1, 2.5, 7)
    assert counter.events == [(1, 2.5)] * 7
    assert system.inner.total_compute_cycles == sum(c for _, c in counter.events)


def test_demand_writer_routes_through_observed_write() -> None:
    """The instrumented system's write port must not hand out the inner
    system's bare port — every write must reach the observers."""
    observed = InstrumentedSystem(make_system(), [TraceObserver()])
    writer = observed.port(0, ArrayId.VERTEX_VALUE, "write")
    reference = make_system().port(0, ArrayId.VERTEX_VALUE, "write")
    for index in (3, 3, 11, 200):
        assert writer(index) == reference(index)
    trace = observed.observer(TraceObserver).trace
    assert [(e.kind, e.index) for e in trace] == [
        ("write", 3), ("write", 3), ("write", 11), ("write", 200)
    ]


def test_every_channel_is_observed() -> None:
    """Engine ports are wrapped like demand ports: one on_access per call,
    tagged with the channel."""
    observed = InstrumentedSystem(make_system(), [TraceObserver()])
    for channel in ("read", "write", "serial", "engine"):
        observed.port(1, ArrayId.OAG_EDGE, channel)(5)
    trace = observed.observer(TraceObserver).trace
    assert [e.kind for e in trace] == ["read", "write", "serial", "engine"]
    assert {(e.core, e.array, e.index) for e in trace} == {
        (1, ArrayId.OAG_EDGE, 5)
    }


def test_phase_profiler_counts_engine_accesses(small_hypergraph) -> None:
    """ChGraph's engine traffic lands under accesses["engine"], and the
    per-phase counts sum to the hierarchy's probe counters."""
    inner = make_system()
    system = InstrumentedSystem.profiled(inner)
    result = ChGraphEngine().run(PageRank(iterations=2), small_hypergraph, system)
    phases = result.telemetry.phases.values()
    engine = sum(p.accesses.get("engine", 0) for p in phases)
    demand = sum(
        count
        for p in phases
        for kind, count in p.accesses.items()
        if kind != "engine"
    )
    assert engine == inner.hierarchy.engine_probes > 0
    assert demand == inner.hierarchy.demand_probes
