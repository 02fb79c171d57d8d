"""Tests for memory-trace recording and replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.engine.hygra import HygraEngine
from repro.sim.config import scaled_config
from repro.sim.layout import ArrayId
from repro.sim.observe import InstrumentedSystem, TraceObserver
from repro.sim.system import SimulatedSystem
from repro.sim.trace import (
    TraceEvent,
    load_trace,
    replay,
    save_trace,
)


def tracing_system(config) -> InstrumentedSystem:
    return InstrumentedSystem(SimulatedSystem(config), [TraceObserver()])


def trace_of(system: InstrumentedSystem) -> list[TraceEvent]:
    return system.observer(TraceObserver).trace


@pytest.fixture
def traced_run(small_hypergraph):
    config = scaled_config(num_cores=2, llc_kb=2)
    system = tracing_system(config)
    HygraEngine().run(PageRank(iterations=1), small_hypergraph, system)
    return system, config


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
    hierarchy = replay(trace_of(system), config)
    assert hierarchy.dram_accesses() == system.dram_accesses()
    assert hierarchy.dram_breakdown() == system.dram_breakdown()


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


@pytest.mark.parametrize("kind", ["wrte", "engine"])
def test_load_trace_rejects_unknown_kind(tmp_path, kind):
    path = tmp_path / "bad.trace"
    path.write_text(f"read 0 VERTEX_VALUE 0\n{kind} 0 VERTEX_VALUE 0\n")
    with pytest.raises(ValueError, match=rf"bad\.trace:2: .*{kind!r}"):
        load_trace(path)


def test_demand_writer_records_every_write():
    """The recording system's demand_writer must not hand out the inner
    system's fast closure — every per-tuple write lands in the trace."""
    config = scaled_config(num_cores=2, llc_kb=2)
    tracing = tracing_system(config)
    reference = SimulatedSystem(config)
    writer = tracing.demand_writer(1, ArrayId.VERTEX_VALUE)
    for index in (0, 9, 9, 31):
        assert writer(index) == reference.write(1, ArrayId.VERTEX_VALUE, index)
    assert trace_of(tracing) == [
        TraceEvent("write", 1, ArrayId.VERTEX_VALUE, index)
        for index in (0, 9, 9, 31)
    ]
