"""Engine-specific behaviour: scheduling, charging, caching, ablations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bfs import Bfs
from repro.algorithms.pagerank import PageRank
from repro.engine import ChGraphEngine, GlaResources, HygraEngine, SoftwareGlaEngine
from repro.engine.result import group_dram_breakdown
from repro.sim.config import scaled_config
from repro.sim.layout import ArrayId
from repro.sim.system import SimulatedSystem


@pytest.fixture
def setup(small_hypergraph):
    config = scaled_config(num_cores=4, llc_kb=2)
    resources = GlaResources.build(small_hypergraph, config.num_cores)
    return small_hypergraph, config, resources


def test_hygra_never_touches_oag(setup):
    hypergraph, config, _ = setup
    run = HygraEngine().run(PageRank(iterations=2), hypergraph, SimulatedSystem(config))
    assert run.dram_by_group["oag"] == 0


def test_gla_touches_oag(setup):
    hypergraph, config, resources = setup
    run = SoftwareGlaEngine(resources).run(
        PageRank(iterations=2), hypergraph, SimulatedSystem(config)
    )
    assert run.dram_by_group["oag"] > 0


def test_dense_algorithm_skips_bitmap(setup):
    hypergraph, config, _ = setup
    run = HygraEngine().run(PageRank(iterations=2), hypergraph, SimulatedSystem(config))
    # §VI-C: "there is no need to access the bitmap" for PageRank.
    assert run.dram_by_array[ArrayId.BITMAP] == 0


def test_sparse_algorithm_uses_bitmap(setup):
    hypergraph, config, _ = setup
    run = HygraEngine().run(Bfs(), hypergraph, SimulatedSystem(config))
    assert run.dram_by_array[ArrayId.BITMAP] > 0


def test_gla_generates_once_for_dense_when_cached(setup):
    """With the cache enabled, PR chains are generated once per phase kind
    (the §VI-B observation); the default engine regenerates (see the module
    docstring for why)."""
    hypergraph, config, resources = setup
    cached = SoftwareGlaEngine(resources, cache_dense_chains=True)
    run = cached.run(PageRank(iterations=4), hypergraph, SimulatedSystem(config))
    assert run.chain_stats["generations"] == 2
    default = SoftwareGlaEngine(resources)
    run = default.run(PageRank(iterations=4), hypergraph, SimulatedSystem(config))
    assert run.chain_stats["generations"] == 8  # 2 phases x 4 iterations


def test_gla_regenerates_for_sparse(setup):
    hypergraph, config, resources = setup
    engine = SoftwareGlaEngine(resources)
    run = engine.run(Bfs(), hypergraph, SimulatedSystem(config))
    assert run.chain_stats["generations"] > 2


def test_chgraph_engine_cycles_charged(setup):
    hypergraph, config, resources = setup
    run = ChGraphEngine(resources).run(
        PageRank(iterations=2), hypergraph, SimulatedSystem(config)
    )
    assert run.cycles > 0


def test_chgraph_decoupling_beats_software_gla(setup):
    hypergraph, config, resources = setup
    gla = SoftwareGlaEngine(resources).run(
        PageRank(iterations=2), hypergraph, SimulatedSystem(config)
    )
    chg = ChGraphEngine(resources).run(
        PageRank(iterations=2), hypergraph, SimulatedSystem(config)
    )
    assert chg.cycles < gla.cycles


def test_ablation_names():
    assert ChGraphEngine(use_hcg=True, use_cp=False).name == "ChGraph-HCGonly"
    assert ChGraphEngine(use_hcg=False, use_cp=True).name == "ChGraph-CPonly"
    assert ChGraphEngine().name == "ChGraph"


def test_hcg_only_still_runs(setup):
    hypergraph, config, resources = setup
    run = ChGraphEngine(resources, use_hcg=True, use_cp=False).run(
        PageRank(iterations=1), hypergraph, SimulatedSystem(config)
    )
    assert run.cycles > 0


def test_resources_rebuilt_on_core_mismatch(setup):
    hypergraph, _, resources = setup
    engine = SoftwareGlaEngine(resources)
    other_config = scaled_config(num_cores=2)
    engine.run(PageRank(iterations=1), hypergraph, SimulatedSystem(other_config))
    assert engine.resources.num_cores == 2


def test_run_result_fields(setup):
    hypergraph, config, _ = setup
    run = HygraEngine().run(PageRank(iterations=2), hypergraph, SimulatedSystem(config))
    assert run.engine == "Hygra"
    assert run.algorithm == "PR"
    assert run.dataset == hypergraph.name
    assert run.iterations == 2
    assert run.dram_accesses == sum(run.dram_by_array.values())
    assert 0.0 <= run.memory_stall_fraction <= 1.0


def test_group_breakdown_sums():
    by_array = {array: 1 for array in ArrayId}
    groups = group_dram_breakdown(by_array)
    assert sum(groups.values()) == len(ArrayId)


def test_speedup_and_reduction_math(setup):
    hypergraph, config, resources = setup
    hygra = HygraEngine().run(
        PageRank(iterations=1), hypergraph, SimulatedSystem(config)
    )
    chg = ChGraphEngine(resources).run(
        PageRank(iterations=1), hypergraph, SimulatedSystem(config)
    )
    assert chg.speedup_over(hygra) == pytest.approx(hygra.cycles / chg.cycles)
    assert chg.dram_reduction_over(hygra) == pytest.approx(
        hygra.dram_accesses / chg.dram_accesses
    )


def test_engine_rejects_unknown_iterations_guard(setup):
    """The runaway guard exists and is far above practical iteration counts."""
    from repro.engine.base import MAX_ENGINE_ITERATIONS

    assert MAX_ENGINE_ITERATIONS >= 10_000


def test_interleaved_engine_matches_serial(setup):
    from repro.engine.interleaved import InterleavedHygraEngine

    hypergraph, config, _ = setup
    serial = HygraEngine().run(
        PageRank(iterations=2), hypergraph, SimulatedSystem(config)
    )
    interleaved = InterleavedHygraEngine().run(
        PageRank(iterations=2), hypergraph, SimulatedSystem(config)
    )
    assert np.allclose(serial.result, interleaved.result)
    # Same access volume; only cache interleaving differs.
    assert interleaved.dram_accesses == pytest.approx(
        serial.dram_accesses, rel=0.35
    )
