"""Tests for the spatial reordering technique (§VI-H)."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hypergraph.csr import Csr
from repro.hypergraph.generators import paper_dataset
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.reorder import apply_vertex_permutation, locality_reorder
from tests.hypergraph import reorder_ref

#: ``content_hash()`` of the locality-reordered WEB stand-in: the input of
#: fig24's reordered runs, and of every run key that carries the stage.
REORDERED_WEB_HASH = (
    "b27e43343689a0c5270e7e43a9ce766d09e48cc24caafd37b97de0099888d274"
)


def test_permutation_is_bijection(small_hypergraph):
    reordering = locality_reorder(small_hypergraph)
    perm = reordering.vertex_perm
    assert sorted(perm) == list(range(small_hypergraph.num_vertices))


def test_reorder_preserves_structure(small_hypergraph):
    reordering = locality_reorder(small_hypergraph)
    original = small_hypergraph
    renamed = reordering.hypergraph
    assert renamed.num_vertices == original.num_vertices
    assert renamed.num_hyperedges == original.num_hyperedges
    assert renamed.num_bipartite_edges == original.num_bipartite_edges
    # Hyperedge h's members map exactly through the permutation.
    for h in range(original.num_hyperedges):
        mapped = sorted(
            int(reordering.vertex_perm[v]) for v in original.incident_vertices(h)
        )
        assert mapped == list(renamed.incident_vertices(h))


def test_reorder_preserves_degree_multiset(small_hypergraph):
    reordering = locality_reorder(small_hypergraph)
    original_degrees = sorted(
        small_hypergraph.vertex_degree(v)
        for v in range(small_hypergraph.num_vertices)
    )
    renamed_degrees = sorted(
        reordering.hypergraph.vertex_degree(v)
        for v in range(small_hypergraph.num_vertices)
    )
    assert original_degrees == renamed_degrees


def test_reorder_improves_member_contiguity(small_hypergraph):
    """The technique's goal: incident vertices get close-by ids."""
    def mean_span(hypergraph):
        spans = []
        for h in range(hypergraph.num_hyperedges):
            members = hypergraph.incident_vertices(h)
            spans.append(int(members.max() - members.min()))
        return float(np.mean(spans))

    reordering = locality_reorder(small_hypergraph)
    assert mean_span(reordering.hypergraph) <= mean_span(small_hypergraph)


def test_reorder_cost_positive(small_hypergraph):
    reordering = locality_reorder(small_hypergraph)
    assert reordering.cost_accesses > small_hypergraph.num_bipartite_edges


def test_original_vertex_inverts(small_hypergraph):
    reordering = locality_reorder(small_hypergraph)
    for new_id in (0, 1, 5):
        old = reordering.original_vertex(new_id)
        assert int(reordering.vertex_perm[old]) == new_id


def test_inverse_perm_round_trips_every_vertex(small_hypergraph):
    """The precomputed inverse is a full round trip in both directions."""
    reordering = locality_reorder(small_hypergraph)
    perm = reordering.vertex_perm
    inverse = reordering.inverse_perm
    n = small_hypergraph.num_vertices
    assert np.array_equal(inverse[perm], np.arange(n))
    assert np.array_equal(perm[inverse], np.arange(n))
    for new_id in range(n):
        assert reordering.original_vertex(new_id) == int(inverse[new_id])


def test_apply_identity_permutation(figure1):
    identity = np.arange(figure1.num_vertices)
    renamed = apply_vertex_permutation(figure1, identity)
    assert renamed.hyperedges == figure1.hyperedges


# -- parity with the reference reorder -------------------------------------------


@st.composite
def _hypergraphs(draw):
    """Small hypergraphs with isolated vertices and empty, one-member and
    zero hyperedges; some store their rows in shuffled member order, which
    the BFS visits as stored."""
    num_vertices = draw(st.integers(0, 24))
    members = st.sets(st.integers(0, max(num_vertices - 1, 0)), max_size=6)
    rows = draw(st.lists(
        members if num_vertices else st.just(set()), max_size=16
    ))
    if draw(st.booleans()):
        return Hypergraph.from_hyperedge_lists(rows, num_vertices=num_vertices)
    shuffled = [draw(st.permutations(sorted(row))) for row in rows]
    incidence = Csr.from_lists(shuffled)
    return Hypergraph(incidence, incidence.transpose(num_cols=num_vertices))


def _assert_same_hypergraph(fast, reference):
    for side in ("hyperedges", "vertices"):
        got, want = getattr(fast, side), getattr(reference, side)
        assert got == want
        assert got.offsets.dtype == want.offsets.dtype
        assert got.indices.dtype == want.indices.dtype
    assert fast.name == reference.name
    assert fast.content_hash() == reference.content_hash()


_EDGELESS = Hypergraph.from_hyperedge_lists([], num_vertices=5)
_SINGLETONS = Hypergraph.from_hyperedge_lists([[3], [], [0, 4], [1]], num_vertices=6)


@settings(max_examples=80, deadline=None)
@given(hypergraph=_hypergraphs())
@example(hypergraph=_EDGELESS)
@example(hypergraph=_SINGLETONS)
@example(hypergraph=Hypergraph.from_hyperedge_lists([], num_vertices=0))
def test_locality_reorder_matches_reference(hypergraph):
    fast = locality_reorder(hypergraph)
    reference = reorder_ref.locality_reorder(hypergraph)
    assert np.array_equal(fast.vertex_perm, reference.vertex_perm)
    assert fast.vertex_perm.dtype == reference.vertex_perm.dtype
    assert fast.cost_accesses == reference.cost_accesses
    _assert_same_hypergraph(fast.hypergraph, reference.hypergraph)


@st.composite
def _permuted_hypergraphs(draw):
    hypergraph = draw(_hypergraphs())
    order = draw(st.permutations(range(hypergraph.num_vertices)))
    return hypergraph, np.array(order, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(case=_permuted_hypergraphs())
@example(case=(_SINGLETONS, np.array([5, 0, 3, 1, 4, 2])))
def test_apply_vertex_permutation_matches_reference(case):
    hypergraph, perm = case
    _assert_same_hypergraph(
        apply_vertex_permutation(hypergraph, perm),
        reorder_ref.apply_vertex_permutation(hypergraph, perm),
    )


def test_reordered_web_content_hash():
    """fig24's reordered input is pinned, so a drift fails here first."""
    reordered = locality_reorder(paper_dataset("WEB")).hypergraph
    assert reordered.content_hash() == REORDERED_WEB_HASH
