"""Tests for the hardware chain generator cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chgraph.hcg import HardwareChainGenerator, HcgCost, HcgPorts
from repro.core.chain import ChainGenerator
from repro.core.oag import build_oag
from repro.sim.config import scaled_config
from repro.sim.null import NullSystem
from repro.sim.system import SimulatedSystem

#: Free ports: the chain semantics and beat/request counts only.
_FREE = HcgPorts.bind(NullSystem(), core=0)


def test_hcg_chains_match_software_generator(figure1):
    oag = build_oag(figure1, "hyperedge", w_min=1)
    config = scaled_config()
    hcg = HardwareChainGenerator(config, d_max=16)
    active = np.ones(4, dtype=bool)
    chains, _ = hcg.generate(active, oag, _FREE)
    reference = ChainGenerator(d_max=16).generate(active, oag)
    assert chains.chains == reference.chains


def test_hcg_d_max_capped_by_stack(figure1):
    config = scaled_config().replace(stack_depth=8)
    hcg = HardwareChainGenerator(config, d_max=64)
    assert hcg.d_max == 8


def test_hcg_cost_counts(figure1):
    oag = build_oag(figure1, "hyperedge", w_min=1)
    config = scaled_config()
    hcg = HardwareChainGenerator(config, d_max=16)
    chains, cost = hcg.generate(np.ones(4, dtype=bool), oag, _FREE)
    # One beat per root scan + per offsets fetch + per inspection + per select.
    expected_beats = (
        chains.root_scans
        + chains.offsets_fetches
        + chains.neighbor_inspections
        + chains.num_elements
    )
    assert cost.beats == expected_beats
    # Sparse mode: a bitmap probe per root scan, two OAG_offset reads per
    # offsets fetch, one OAG_edge read per inspection.
    assert cost.requests == (
        chains.root_scans + 2 * chains.offsets_fetches + chains.neighbor_inspections
    )


def test_hcg_dense_skips_bitmap(figure1):
    oag = build_oag(figure1, "hyperedge", w_min=1)
    config = scaled_config()
    hcg = HardwareChainGenerator(config, d_max=16)
    _, sparse_cost = hcg.generate(np.ones(4, dtype=bool), oag, _FREE, dense=False)
    _, dense_cost = hcg.generate(np.ones(4, dtype=bool), oag, _FREE, dense=True)
    assert dense_cost.requests == sparse_cost.requests - 4  # 4 root scans


def test_hcg_engine_cycles(figure1):
    cost = HcgCost(beats=10, serial_latency=100.0)
    assert cost.engine_cycles(stage_cycles=2.0) == pytest.approx(120.0)


def test_hcg_issues_engine_accesses(figure1):
    oag = build_oag(figure1, "hyperedge", w_min=1)
    config = scaled_config(num_cores=2, llc_kb=2)
    system = SimulatedSystem(config)
    hierarchy = system.hierarchy
    hcg = HardwareChainGenerator(config, d_max=16)
    _, cost = hcg.generate(
        np.ones(4, dtype=bool), oag, HcgPorts.bind(system, core=0)
    )
    assert cost.serial_latency > 0
    assert hierarchy.engine_probes == cost.requests
    # OAG data landed in the L2 (engine fill level), not the L1.
    assert hierarchy.l2[0].stats.accesses > 0
    assert hierarchy.l1[0].stats.accesses == 0
