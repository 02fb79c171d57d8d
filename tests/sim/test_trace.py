"""Tests for memory-trace recording and replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.engine.hygra import HygraEngine
from repro.harness.runner import Runner
from repro.sim.config import scaled_config
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId
from repro.sim.observe import InstrumentedSystem, TraceObserver
from repro.sim.system import SimulatedSystem
from repro.sim.trace import (
    KINDS,
    TraceEvent,
    load_trace,
    replay,
    save_trace,
)

#: Engines whose traces must replay to the run's counters; all but Hygra
#: and GLA issue engine-channel accesses.
TRACED_ENGINES = ("Hygra", "GLA", "ChGraph", "EventPrefetcher", "HATS-V")


def tracing_system(config) -> InstrumentedSystem:
    return InstrumentedSystem(SimulatedSystem(config), [TraceObserver()])


def trace_of(system: InstrumentedSystem) -> list[TraceEvent]:
    return system.observer(TraceObserver).trace


@pytest.fixture
def traced_run(request, small_hypergraph):
    """A recorded one-iteration PR run of the engine named by the fixture's
    parameter (Hygra when not parametrized)."""
    engine_name = getattr(request, "param", "Hygra")
    config = scaled_config(num_cores=2, llc_kb=2)
    engine = Runner(cache_dir=None).engine(engine_name, small_hypergraph, config)
    system = tracing_system(config)
    engine.run(PageRank(iterations=1), small_hypergraph, system)
    return system, config


def counters(hierarchy: MemoryHierarchy) -> dict:
    """Every counter of a hierarchy: per-cache stats, probes, DRAM."""
    caches = {
        "l1": hierarchy.l1,
        "l2": hierarchy.l2,
        "l3": [hierarchy.l3],
    }
    return {
        "caches": {
            level: [
                (c.stats.hits, c.stats.misses, c.stats.evictions, c.stats.writebacks)
                for c in group
            ]
            for level, group in caches.items()
        },
        "demand_probes": hierarchy.demand_probes,
        "engine_probes": hierarchy.engine_probes,
        "dram_fetches": hierarchy.dram_breakdown(),
        "dram_writebacks": hierarchy.writeback_breakdown(),
    }


def assert_replay_matches_run(system: InstrumentedSystem, config) -> None:
    replayed = replay(trace_of(system), config)
    assert counters(replayed) == counters(system.hierarchy)
    assert replayed.dram_accesses() == system.dram_accesses()
    assert replayed.writebacks() == system.dram_writebacks()


def test_trace_records_accesses(traced_run):
    system, _ = traced_run
    trace = trace_of(system)
    assert len(trace) > 0
    kinds = {event.kind for event in trace}
    assert "read" in kinds and "write" in kinds


def test_tracing_does_not_change_simulation(small_hypergraph):
    config = scaled_config(num_cores=2, llc_kb=2)
    plain = SimulatedSystem(config)
    traced = tracing_system(config)
    a = HygraEngine().run(PageRank(iterations=1), small_hypergraph, plain)
    b = HygraEngine().run(PageRank(iterations=1), small_hypergraph, traced)
    assert a.dram_accesses == b.dram_accesses
    assert a.cycles == b.cycles
    assert np.allclose(a.result, b.result)


def test_replay_reproduces_dram_counts(traced_run):
    system, config = traced_run
    assert_replay_matches_run(system, config)


@pytest.mark.parametrize("traced_run", TRACED_ENGINES[1:], indirect=True)
def test_replay_reproduces_every_engine(traced_run):
    """A trace is complete for every engine, engine-channel traffic
    included: replay reproduces every counter of the run."""
    system, config = traced_run
    assert_replay_matches_run(system, config)


def test_replay_through_bigger_cache_misses_less(traced_run):
    system, config = traced_run
    bigger = replay(trace_of(system), scaled_config(num_cores=2, llc_kb=32))
    assert bigger.dram_accesses() <= system.dram_accesses()


def test_trace_file_roundtrip(traced_run, tmp_path):
    system, _ = traced_run
    trace = trace_of(system)
    path = tmp_path / "run.trace"
    save_trace(trace[:500], path)
    loaded = load_trace(path)
    assert loaded == trace[:500]
    assert isinstance(loaded[0], TraceEvent)
    assert isinstance(loaded[0].array, ArrayId)


def test_trace_file_roundtrips_every_kind(tmp_path):
    trace = [
        TraceEvent(kind, core, array, index)
        for core, (kind, array, index) in enumerate(
            zip(KINDS, (ArrayId.BITMAP, ArrayId.OAG_EDGE) * 2, (0, 7, 63, 4096))
        )
    ]
    assert {event.kind for event in trace} == {"read", "write", "serial", "engine"}
    path = tmp_path / "kinds.trace"
    save_trace(trace, path)
    assert load_trace(path) == trace


@pytest.mark.parametrize("kind", ["wrte", "prefetch"])
def test_load_trace_rejects_unknown_kind(tmp_path, kind):
    path = tmp_path / "bad.trace"
    path.write_text(f"read 0 VERTEX_VALUE 0\n{kind} 0 VERTEX_VALUE 0\n")
    with pytest.raises(ValueError, match=rf"bad\.trace:2: .*{kind!r}"):
        load_trace(path)


def test_demand_writer_records_every_write():
    """The recording system's write port must not hand out the inner
    system's bare port — every per-tuple write lands in the trace."""
    config = scaled_config(num_cores=2, llc_kb=2)
    tracing = tracing_system(config)
    reference = SimulatedSystem(config).port(1, ArrayId.VERTEX_VALUE, "write")
    writer = tracing.port(1, ArrayId.VERTEX_VALUE, "write")
    for index in (0, 9, 9, 31):
        assert writer(index) == reference(index)
    assert trace_of(tracing) == [
        TraceEvent("write", 1, ArrayId.VERTEX_VALUE, index)
        for index in (0, 9, 9, 31)
    ]
