"""Tests for the runtime invariant checker."""

from __future__ import annotations

import pytest

from repro.chgraph.fifo import BoundedFifo
from repro.harness.differential import inject_fault, seeded_graphs
from repro.harness.runner import Runner
from repro.hypergraph.frontier import Frontier
from repro.sim.config import scaled_config
from repro.sim.invariants import (
    InvariantChecker,
    InvariantViolationError,
    check_fifo,
)
from repro.sim.layout import ArrayId
from repro.sim.observe import InstrumentedSystem
from repro.sim.protocol import PHASE_BEGIN, EngineEvent
from repro.sim.system import SimulatedSystem


def make_checked_system(**config_kwargs):
    config = scaled_config(num_cores=2, llc_kb=2, **config_kwargs)
    system = InstrumentedSystem(SimulatedSystem(config))
    checker = system.add_observer(InvariantChecker())
    return system, checker


def checked_run(engine_name="Hygra", algorithm_name="PR", strict=False):
    runner = Runner(pr_iterations=2, cache_dir=None)
    hypergraph = seeded_graphs(count=1)[0]
    config = scaled_config(num_cores=2, llc_kb=2)
    engine = runner.engine(engine_name, hypergraph, config)
    algorithm = runner.algorithm(algorithm_name)
    system = InstrumentedSystem(SimulatedSystem(config))
    checker = system.add_observer(InvariantChecker(strict=strict))
    engine.run(algorithm, hypergraph, system)
    return checker


def test_clean_run_has_no_violations():
    checker = checked_run()
    assert checker.ok
    assert checker.violations() == []
    assert checker.barriers_checked > 0


def test_synthetic_traffic_conserves_counters():
    system, checker = make_checked_system()
    ports = {
        (core, channel): system.port(core, ArrayId.VERTEX_VALUE, channel)
        for core in (0, 1)
        for channel in ("read", "write", "engine")
    }
    for i in range(5_000):
        channel = ("write", "read", "engine")[i % 3]
        ports[(i % 2, channel)]((i * 17) % 4096)
    system.barrier()
    assert checker.violations() == []
    assert system.dram_writebacks() > 0  # write-heavy enough to drain


@pytest.mark.parametrize("channel", ["read", "engine"])
def test_access_behind_the_facade_is_reported(channel):
    """An access made on the bare inner system, where no observer sees it,
    breaks the coverage equation of its channel."""
    system, checker = make_checked_system()
    system.inner.port(0, ArrayId.VERTEX_VALUE, channel)(5)
    system.barrier()
    kind = "engine" if channel == "engine" else "demand"
    assert any(
        f"observed {kind} accesses (0) != hierarchy {kind} probes (1)" in v
        for v in checker.violations()
    ), checker.violations()


def test_lost_writeback_fault_is_detected():
    with inject_fault("lost-writeback"):
        checker = checked_run(engine_name="ChGraph")
    assert not checker.ok
    assert any("dirty line" in v and "lost" in v for v in checker.violations())


def test_skewed_attribution_fault_is_detected():
    with inject_fault("skewed-attribution"):
        checker = checked_run()
    assert not checker.ok
    assert any("per-array DRAM fetches" in v for v in checker.violations())


def test_strict_mode_raises_on_fault():
    with inject_fault("lost-writeback"):
        with pytest.raises(InvariantViolationError):
            checked_run(engine_name="ChGraph", strict=True)


def test_violation_cap_truncates():
    system, _ = make_checked_system()
    checker = system.add_observer(InvariantChecker(max_violations=3))
    for _ in range(10):
        checker._report("boom")
    found = checker.violations()
    assert len(found) == 4  # 3 kept + truncation notice
    assert "suppressed" in found[-1]


def test_check_fifo_accepts_consistent_fifo():
    fifo = BoundedFifo(depth=4)
    fifo.push(1)
    fifo.push(2)
    fifo.pop()
    assert check_fifo(fifo, "chains") == []


def test_check_fifo_flags_corrupt_counters():
    fifo = BoundedFifo(depth=4)
    fifo.push(1)
    fifo.pops = 5  # corrupt: more pops than pushes
    messages = check_fifo(fifo, "chains")
    assert any("pops 5 > pushes 1" in m for m in messages)
    assert any("pushes - pops" in m for m in messages)


def test_watched_fifo_checked_at_barrier():
    system, checker = make_checked_system()
    fifo = BoundedFifo(depth=2)
    checker.watch_fifo("chains", fifo)
    fifo.push(1)
    fifo.pops = 3
    system.barrier()
    assert any("chains:" in v for v in checker.violations())


def test_frontier_count_mismatch_detected():
    system, checker = make_checked_system()
    frontier = Frontier(universe=64, active=(1, 2, 3))
    frontier._count = 7  # corrupt the memoized popcount
    system.on_event(
        EngineEvent(
            kind=PHASE_BEGIN,
            iteration=0,
            phase="vertex",
            frontier_size=7,
            frontier=frontier,
        )
    )
    assert any("frontier cached count 7 != popcount 3" in v
               for v in checker.violations())


def test_frontier_escaped_bitmap_is_not_flagged():
    system, checker = make_checked_system()
    frontier = Frontier(universe=64, active=(1, 2, 3))
    frontier.bitmap[5] = True  # escape hatch: cache is invalidated, not stale
    system.on_event(
        EngineEvent(
            kind=PHASE_BEGIN,
            iteration=0,
            phase="vertex",
            frontier_size=4,
            frontier=frontier,
        )
    )
    assert checker.violations() == []


def test_checker_seeds_shadow_from_preexisting_dirty_lines():
    # Attaching mid-run must not flag dirty lines that predate the checker.
    config = scaled_config(num_cores=2, llc_kb=2)
    system = InstrumentedSystem(SimulatedSystem(config))
    system.port(0, ArrayId.VERTEX_VALUE, "write")(0)
    checker = system.add_observer(InvariantChecker())
    system.barrier()
    assert checker.violations() == []
