"""Tests for the SimulatedSystem facade and the energy model."""

from __future__ import annotations

import pytest

from repro.sim.config import scaled_config
from repro.sim.layout import ArrayId
from repro.sim.null import NullSystem
from repro.sim.protocol import CHANNELS
from repro.sim.system import SimulatedSystem


def make_system() -> SimulatedSystem:
    return SimulatedSystem(scaled_config(num_cores=2, llc_kb=2))


def test_read_charges_memory_path():
    system = make_system()
    latency = system.port(0, ArrayId.VERTEX_VALUE, "read")(0)
    assert system.timer._memory[0] == latency
    system.barrier()
    assert system.total_cycles > 0
    assert system.breakdown.memory_stall_cycles > 0


def test_read_serial_charges_compute():
    system = make_system()
    latency = system.port(0, ArrayId.OAG_EDGE, "serial")(0)
    assert system.timer._compute[0] == latency
    system.barrier()
    assert system.breakdown.compute_cycles > 0
    assert system.breakdown.memory_stall_cycles == 0


def test_write_marks_dram_attribution():
    system = make_system()
    system.port(0, ArrayId.HYPEREDGE_VALUE, "write")(0)
    assert system.dram_breakdown()[ArrayId.HYPEREDGE_VALUE] == 1


def test_engine_port_charges_no_accumulator():
    system = make_system()
    latency = system.port(1, ArrayId.OAG_EDGE, "engine")(0)
    assert latency > 0
    assert system.hierarchy.engine_probes == 1
    assert system.timer._memory == system.timer._compute == [0.0, 0.0]
    assert system.timer._engine == [0.0, 0.0]
    with pytest.raises(ValueError, match="no accumulator"):
        system.hierarchy.port(1, ArrayId.OAG_EDGE, "engine", [0.0, 0.0])


def test_unknown_channel_rejected():
    with pytest.raises(ValueError, match="unknown channel"):
        make_system().port(0, ArrayId.VERTEX_VALUE, "prefetch")


def test_energy_report_components():
    system = make_system()
    read = system.port(0, ArrayId.VERTEX_VALUE, "read")
    for i in range(50):
        read(i)
    system.charge_compute(0, 1000)
    report = system.energy()
    assert report.dram_nj > 0
    assert report.l1_nj > 0
    assert report.core_nj == pytest.approx(1000 * system.energy_model.CORE_CYCLE_NJ)
    assert report.total_nj == pytest.approx(
        report.l1_nj + report.l2_nj + report.l3_nj + report.dram_nj + report.core_nj
    )
    assert 0.0 < report.memory_fraction < 1.0


def test_null_system_is_free():
    system = NullSystem()
    for channel in CHANNELS:
        assert system.port(0, ArrayId.VERTEX_VALUE, channel)(0) == 0
    system.charge_compute(0, 10)
    system.charge_engine(0, 10)
    assert system.barrier() == 0.0
    assert system.total_cycles == 0.0
    assert system.dram_accesses() == 0
    assert system.hierarchy is None


def test_dram_contention_flag_inflates_memory_bound_runs():
    def run(contention: bool) -> float:
        config = scaled_config(num_cores=2, llc_kb=2).replace(
            dram_contention=contention
        )
        system = SimulatedSystem(config)
        reads = [system.port(core, ArrayId.VERTEX_VALUE, "read") for core in (0, 1)]
        for i in range(20_000):
            reads[i % 2]((i * 13) % 65536)
        system.barrier()
        return system.total_cycles

    baseline = run(contention=False)
    contended = run(contention=True)
    # Same traffic; the contention model may only slow the phase down.
    assert contended >= baseline
    assert contended > baseline  # this phase is memory-bound, so strictly


def test_dram_contention_off_matches_legacy_barrier():
    # The flag defaults off and the off-path must be arithmetically
    # identical to the pre-flag barrier (figures stay bit-identical).
    a = SimulatedSystem(scaled_config(num_cores=2, llc_kb=2))
    assert a.config.dram_contention is False
    b = SimulatedSystem(
        scaled_config(num_cores=2, llc_kb=2).replace(dram_contention=False)
    )
    for system in (a, b):
        reads = [system.port(core, ArrayId.VERTEX_VALUE, "read") for core in (0, 1)]
        for i in range(5_000):
            reads[i % 2]((i * 13) % 65536)
        system.barrier()
    assert a.total_cycles == b.total_cycles


def test_dram_writebacks_surface_on_the_facade():
    system = make_system()
    writes = [system.port(core, ArrayId.VERTEX_VALUE, "write") for core in (0, 1)]
    for i in range(20_000):
        writes[i % 2]((i * 13) % 65536)
    system.barrier()
    assert system.dram_writebacks() > 0
    breakdown = system.dram_writeback_breakdown()
    assert sum(breakdown.values()) == system.dram_writebacks()
    assert breakdown[ArrayId.VERTEX_VALUE] == system.dram_writebacks()
