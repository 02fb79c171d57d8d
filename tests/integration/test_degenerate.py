"""Degenerate and adversarial inputs: the system must not fall over.

Empty hypergraphs, isolated elements, singleton hyperedges, self-contained
components, pathological frontiers — every engine and algorithm must handle
them gracefully (correct results, no crashes, no infinite loops).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    Adsorption,
    Bfs,
    ConnectedComponents,
    KCore,
    MaximalIndependentSet,
    PageRank,
)
from repro.engine import ChGraphEngine, GlaResources, HygraEngine, SoftwareGlaEngine
from repro.hypergraph.hypergraph import Hypergraph
from repro.sim.config import scaled_config
from repro.sim.system import SimulatedSystem

ENGINE_FACTORIES = (
    lambda r: HygraEngine(),
    lambda r: SoftwareGlaEngine(r),
    lambda r: ChGraphEngine(r),
)


def run_everywhere(hypergraph, algorithm_factory):
    config = scaled_config(num_cores=2, llc_kb=2)
    resources = GlaResources.build(hypergraph, config.num_cores)
    results = []
    for factory in ENGINE_FACTORIES:
        engine = factory(resources)
        results.append(
            engine.run(algorithm_factory(), hypergraph, SimulatedSystem(config))
        )
    return results


def test_empty_hypergraph():
    empty = Hypergraph.from_hyperedge_lists([], num_vertices=0)
    for run in run_everywhere(empty, ConnectedComponents):
        assert run.result.size == 0


@pytest.mark.parametrize(
    "make_algorithm",
    [lambda: PageRank(iterations=3), lambda: Adsorption(iterations=3)],
    ids=["PR", "Adsorption"],
)
def test_dense_apps_stop_after_one_iteration_on_the_empty_hypergraph(
    make_algorithm,
):
    """Both frontiers of an empty hypergraph are empty, so the dense apps
    stop after one iteration, as every other app does, not at their cap."""
    empty = Hypergraph.from_hyperedge_lists([], num_vertices=0)
    for run in run_everywhere(empty, make_algorithm):
        assert run.iterations == 1
        assert run.result.size == 0


def test_no_hyperedges_some_vertices():
    hypergraph = Hypergraph.from_hyperedge_lists([], num_vertices=5)
    for run in run_everywhere(hypergraph, ConnectedComponents):
        assert list(run.result) == [0, 1, 2, 3, 4]
    for run in run_everywhere(hypergraph, KCore):
        assert np.all(run.result == 0.0)


def test_single_hyperedge():
    hypergraph = Hypergraph.from_hyperedge_lists([[0, 1, 2]])
    for run in run_everywhere(hypergraph, lambda: Bfs(source=0)):
        assert list(run.result) == [0.0, 2.0, 2.0]


def test_singleton_hyperedge():
    """A hyperedge with one member connects nothing but must not crash."""
    hypergraph = Hypergraph.from_hyperedge_lists([[3], [0, 1]], num_vertices=4)
    for run in run_everywhere(hypergraph, ConnectedComponents):
        assert run.result[3] != run.result[0]
    for run in run_everywhere(hypergraph, KCore):
        assert run.result[3] == 0.0  # the singleton never connects


def test_bfs_from_isolated_source():
    hypergraph = Hypergraph.from_hyperedge_lists([[0, 1]], num_vertices=3)
    for run in run_everywhere(hypergraph, lambda: Bfs(source=2)):
        assert run.result[2] == 0.0
        assert np.isinf(run.result[0])


def test_duplicate_hyperedges():
    """Identical hyperedges are legal (weight-heavy OAG edges)."""
    hypergraph = Hypergraph.from_hyperedge_lists([[0, 1, 2]] * 4)
    for run in run_everywhere(hypergraph, lambda: PageRank(iterations=2)):
        assert np.all(np.isfinite(run.result))
    results = run_everywhere(hypergraph, lambda: MaximalIndependentSet(seed=1))
    for run in results:
        assert np.array_equal(run.result, results[0].result)


def test_star_hypergraph():
    """One vertex in every hyperedge: the OAG is a clique through the hub."""
    hyperedges = [[0, i] for i in range(1, 30)]
    hypergraph = Hypergraph.from_hyperedge_lists(hyperedges)
    for run in run_everywhere(hypergraph, ConnectedComponents):
        assert np.all(run.result == 0.0)


def test_pagerank_zero_iterations_rejected():
    with pytest.raises(ValueError):
        PageRank(iterations=0)


def test_more_cores_than_elements():
    hypergraph = Hypergraph.from_hyperedge_lists([[0, 1]])
    config = scaled_config(num_cores=16, llc_kb=2)
    resources = GlaResources.build(hypergraph, config.num_cores)
    run = ChGraphEngine(resources).run(
        ConnectedComponents(), hypergraph, SimulatedSystem(config)
    )
    assert list(run.result) == [0.0, 0.0]
