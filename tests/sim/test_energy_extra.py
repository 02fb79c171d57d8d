"""Additional energy-model behaviors."""

from __future__ import annotations

import pytest

from repro.sim.config import scaled_config
from repro.sim.energy import EnergyModel, EnergyReport
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId


def test_dram_dominates_on_miss_heavy_streams():
    hierarchy = MemoryHierarchy(scaled_config(num_cores=1, llc_kb=2))
    # A miss-per-access stream: every line distinct.
    read = hierarchy.port(0, ArrayId.VERTEX_VALUE, "read")
    for i in range(0, 8000, 8):
        read(i)
    report = EnergyModel().report(hierarchy, compute_cycles=0)
    assert report.dram_nj > report.l1_nj + report.l2_nj + report.l3_nj
    assert report.memory_fraction > 0.5


def test_hit_heavy_stream_spends_in_sram():
    hierarchy = MemoryHierarchy(scaled_config(num_cores=1, llc_kb=2))
    read = hierarchy.port(0, ArrayId.VERTEX_VALUE, "read")
    for _ in range(5000):
        read(0)  # one hot word
    report = EnergyModel().report(hierarchy, compute_cycles=0)
    assert report.l1_nj > report.dram_nj


def test_zero_activity_report():
    hierarchy = MemoryHierarchy(scaled_config(num_cores=1))
    report = EnergyModel().report(hierarchy, compute_cycles=0)
    assert report.total_nj == 0.0
    assert report.memory_fraction == 0.0


def test_report_is_frozen():
    report = EnergyReport(l1_nj=1, l2_nj=1, l3_nj=1, dram_nj=1, core_nj=1)
    with pytest.raises(Exception):
        report.l1_nj = 5


def test_writebacks_cost_dram_energy():
    """Regression: DRAM writeback lines must consume energy.

    The same miss-heavy stream is driven once as writes and once as reads;
    the write run drains dirty L3 victims to memory, and its DRAM energy
    must be *strictly* higher than the read-only counterfactual, which
    fetches the identical lines.
    """
    config = scaled_config(num_cores=1, llc_kb=2)
    reports = {}
    writebacks = {}
    for write in (True, False):
        hierarchy = MemoryHierarchy(config)
        port = hierarchy.port(0, ArrayId.VERTEX_VALUE, "write" if write else "read")
        for _ in range(2):  # second sweep re-dirties and evicts again
            for i in range(0, 8000, 8):
                port(i)
        reports[write] = EnergyModel().report(hierarchy, compute_cycles=0)
        writebacks[write] = hierarchy.writebacks()
    assert writebacks[True] > 0 and writebacks[False] == 0
    # Read-side fetch energy is identical; the write run adds writeback
    # energy on top, raising the DRAM total and the memory fraction.
    assert reports[True].dram_nj == reports[False].dram_nj
    assert reports[False].dram_write_nj == 0.0
    assert reports[True].dram_write_nj == (
        writebacks[True] * EnergyModel.DRAM_WRITE_NJ
    )
    assert reports[True].dram_total_nj > reports[False].dram_total_nj
    assert reports[True].total_nj > reports[False].total_nj
    assert reports[True].memory_fraction > reports[False].memory_fraction
