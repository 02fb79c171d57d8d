"""Tests for the Hypergraph container, anchored on the paper's Figure 1."""

from __future__ import annotations

import pytest

from repro.errors import HypergraphFormatError
from repro.hypergraph.csr import Csr
from repro.hypergraph.hypergraph import Hypergraph


def test_figure1_dimensions(figure1):
    assert figure1.num_vertices == 7
    assert figure1.num_hyperedges == 4
    assert figure1.num_bipartite_edges == 13


def test_figure1_degrees(figure1):
    # §II-A: deg(h0) = 3 because h0 contains v0, v4, v6.
    assert figure1.hyperedge_degree(0) == 3
    # deg(v0) = 2 because v0 is contained in h0 and h2.
    assert figure1.vertex_degree(0) == 2


def test_figure1_incidence(figure1):
    assert list(figure1.incident_vertices(0)) == [0, 4, 6]
    assert list(figure1.incident_hyperedges(0)) == [0, 2]


def test_figure1_overlap(figure1):
    # §II-A: h0 and h2 are overlapped since N(h0) ∩ N(h2) = {v0, v4}.
    assert figure1.hyperedges_overlap(0, 2)
    assert not figure1.hyperedges_overlap(0, 1)
    # v0 and v2 are both in h2, hence overlapped.
    assert figure1.vertices_overlap(0, 2)
    assert not figure1.vertices_overlap(5, 6)


def test_vertex_side_is_transpose(figure1):
    rebuilt = figure1.hyperedges.transpose(num_cols=figure1.num_vertices)
    assert rebuilt == figure1.vertices


def test_side_selector(figure1):
    assert figure1.side("hyperedge") is figure1.hyperedges
    assert figure1.side("vertex") is figure1.vertices
    with pytest.raises(ValueError):
        figure1.side("bogus")


def test_clique_expansion(figure1):
    edges = figure1.clique_expansion()
    # Every pair within a hyperedge must be present exactly once.
    assert (0, 4) in edges
    assert (1, 3) in edges
    assert len(edges) == len(set(edges))
    # Non-co-members absent.
    assert (5, 6) not in edges


def test_from_hyperedge_lists_dedups_and_sorts():
    hypergraph = Hypergraph.from_hyperedge_lists([[3, 1, 3, 2]])
    assert list(hypergraph.incident_vertices(0)) == [1, 2, 3]


def test_from_hyperedge_lists_rejects_negative():
    with pytest.raises(HypergraphFormatError):
        Hypergraph.from_hyperedge_lists([[-1, 2]])


def test_from_hyperedge_lists_rejects_small_num_vertices():
    with pytest.raises(HypergraphFormatError):
        Hypergraph.from_hyperedge_lists([[0, 5]], num_vertices=3)


def test_mismatched_sides_rejected():
    hyperedges = Csr.from_lists([[0, 1]])
    vertices = Csr.from_lists([[0]])  # one bipartite edge instead of two
    with pytest.raises(HypergraphFormatError):
        Hypergraph(hyperedges, vertices)


@pytest.mark.parametrize(
    "hyperedges, vertices",
    [
        # Hyperedge 0 lists vertex 0 twice, and the vertex side puts vertex
        # 0 in hyperedge 1 only: equal entry counts, ids in range.
        ([[0, 0], [1]], [[1], [0], [0]]),
        # The vertex side is the transpose, but hyperedge 0 repeats vertex 1.
        ([[1, 0, 1]], [[0], [0, 0]]),
        # Right degrees, wrong members.
        ([[0, 1], [2]], [[0], [1], [0]]),
        # Vertex -1 in hyperedge 0, mirrored as hyperedge -1 in the last
        # vertex row: only the range check sees a negative id.
        ([[-1, 0]], [[0], [-1]]),
    ],
)
def test_sides_must_be_duplicate_free_transposes(hyperedges, vertices):
    with pytest.raises(HypergraphFormatError):
        Hypergraph(Csr.from_lists(hyperedges), Csr.from_lists(vertices))


def test_size_bytes_scales_with_structure(figure1):
    base = figure1.size_bytes()
    bigger = Hypergraph.from_hyperedge_lists(
        [[0, 4, 6], [1, 2, 3, 5], [0, 2, 4], [1, 3, 6], [0, 1, 2, 3]],
        num_vertices=7,
    )
    assert bigger.size_bytes() > base


def test_isolated_vertices_allowed():
    hypergraph = Hypergraph.from_hyperedge_lists([[0, 1]], num_vertices=5)
    assert hypergraph.num_vertices == 5
    assert hypergraph.vertex_degree(4) == 0


def test_repr_mentions_counts(figure1):
    text = repr(figure1)
    assert "|V|=7" in text
    assert "|H|=4" in text
