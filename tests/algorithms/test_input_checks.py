"""The public constructors reject out-of-range inputs instead of running.

A source vertex is checked against the hypergraph it runs on (numpy would
otherwise wrap ``-1`` around to the last vertex, or raise a bare
``IndexError`` past the end), and a fixed-iteration app needs at least one
iteration.
"""

from __future__ import annotations

import pytest

from repro.algorithms import Adsorption, BetweennessCentrality, Bfs, Sssp
from repro.engine.hygra import HygraEngine
from repro.hypergraph.hypergraph import Hypergraph

PATH = Hypergraph.from_hyperedge_lists([[0, 1], [1, 2]])


@pytest.mark.parametrize("source", [-1, 3])
@pytest.mark.parametrize("make", [Bfs, BetweennessCentrality, Sssp])
def test_source_outside_the_vertices_is_rejected(make, source):
    with pytest.raises(ValueError, match=f"source {source} "):
        HygraEngine().run(make(source=source), PATH)


@pytest.mark.parametrize("iterations", [0, -3])
def test_adsorption_needs_an_iteration(iterations):
    with pytest.raises(ValueError, match="iterations"):
        Adsorption(iterations=iterations)
