"""Tests for OAG construction, anchored on the paper's Figure 11."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.oag import DEFAULT_W_MIN, build_chunk_oags, build_oag
from repro.hypergraph.csr import Csr
from repro.hypergraph.generators import generate_affiliation_hypergraph, AffiliationConfig
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import contiguous_chunks


def test_figure11_h_oag(figure1):
    """Figure 11(b): the H-OAG of the running example.

    Overlaps: |N(h0) ∩ N(h2)| = 2 (v0, v4), |N(h0) ∩ N(h3)| = 1 (v6),
    |N(h1) ∩ N(h2)| = 1 (v2), |N(h1) ∩ N(h3)| = 2 (v1, v3).
    """
    oag = build_oag(figure1, "hyperedge", w_min=1)
    edges = {
        (node, int(n)): int(w)
        for node in range(oag.num_nodes)
        for n, w in zip(oag.neighbors(node), oag.weights(node))
    }
    assert edges[(0, 2)] == 2 and edges[(2, 0)] == 2
    assert edges[(0, 3)] == 1 and edges[(3, 0)] == 1
    assert edges[(1, 2)] == 1 and edges[(2, 1)] == 1
    assert edges[(1, 3)] == 2 and edges[(3, 1)] == 2
    assert (0, 1) not in edges  # h0 and h1 do not overlap
    assert oag.num_edges == 8  # four undirected overlaps


def test_figure11_weight_descending_order(figure1):
    oag = build_oag(figure1, "hyperedge", w_min=1)
    # h0's strongest neighbor is h2 (weight 2), before h3 (weight 1) —
    # exactly why the chain from h0 goes to h2 first (§IV-B).
    assert list(oag.neighbors(0)) == [2, 3]
    assert list(oag.weights(0)) == [2, 1]
    assert oag.is_weight_descending()


def test_w_min_prunes(figure1):
    oag = build_oag(figure1, "hyperedge", w_min=2)
    edges = {
        (node, int(n))
        for node in range(oag.num_nodes)
        for n in oag.neighbors(node)
    }
    assert edges == {(0, 2), (2, 0), (1, 3), (3, 1)}


def test_w_min_high_empties(figure1):
    oag = build_oag(figure1, "hyperedge", w_min=10)
    assert oag.num_edges == 0
    assert oag.num_nodes == figure1.num_hyperedges


def test_vertex_side_oag(figure1):
    oag = build_oag(figure1, "vertex", w_min=1)
    # v0 and v4 are both in h0 and h2: weight 2.
    weights = dict(zip(map(int, oag.neighbors(0)), map(int, oag.weights(0))))
    assert weights[4] == 2


def test_invalid_side(figure1):
    with pytest.raises(ValueError):
        build_oag(figure1, "nope")


def test_storage_bytes(figure1):
    oag = build_oag(figure1, "hyperedge", w_min=1)
    expected = 4 * (oag.csr.offsets.size + 2 * oag.csr.indices.size)
    assert oag.storage_bytes() == expected


def test_chunked_matches_per_chunk_build(small_hypergraph):
    """The one-pass chunked builder equals chunk-by-chunk build_oag."""
    chunks = contiguous_chunks(small_hypergraph.num_hyperedges, 4)
    fast = build_chunk_oags(small_hypergraph, "hyperedge", chunks, w_min=2)
    for chunk, oag in zip(chunks, fast):
        slow = build_oag(small_hypergraph, "hyperedge", w_min=2, chunk=chunk)
        assert oag.csr == slow.csr
        assert oag.first_id == slow.first_id


def test_chunked_vertex_side_matches(small_hypergraph):
    chunks = contiguous_chunks(small_hypergraph.num_vertices, 3)
    fast = build_chunk_oags(small_hypergraph, "vertex", chunks, w_min=1)
    for chunk, oag in zip(chunks, fast):
        slow = build_oag(small_hypergraph, "vertex", w_min=1, chunk=chunk)
        assert oag.csr == slow.csr


def test_chunk_oag_excludes_cross_chunk_edges(figure1):
    chunks = contiguous_chunks(figure1.num_hyperedges, 2)
    oags = build_chunk_oags(figure1, "hyperedge", chunks, w_min=1)
    # Chunk 0 holds {h0, h1} which do not overlap; chunk 1 holds {h2, h3}.
    assert oags[0].num_edges == 0
    assert oags[1].num_edges == 0  # h2 ∩ h3 = {} (members {0,2,4} vs {1,3,6})


def test_default_w_min_is_paper_value():
    assert DEFAULT_W_MIN == 3


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=9))
@settings(max_examples=20, deadline=None)
def test_oag_symmetry_property(w_min, seed):
    config = AffiliationConfig(
        num_vertices=40,
        num_hyperedges=30,
        mean_hyperedge_degree=6.0,
        num_communities=4,
        seed=seed,
    )
    hypergraph = generate_affiliation_hypergraph(config)
    oag = build_oag(hypergraph, "hyperedge", w_min=w_min)
    edges = {}
    for node in range(oag.num_nodes):
        for n, w in zip(oag.neighbors(node), oag.weights(node)):
            edges[(node, int(n))] = int(w)
    for (a, b), w in edges.items():
        assert edges[(b, a)] == w
        assert w >= w_min
        # Weight equals the true intersection size.
        na = set(map(int, hypergraph.incident_vertices(a)))
        nb = set(map(int, hypergraph.incident_vertices(b)))
        assert w == len(na & nb)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=29), min_size=2, max_size=6),
        min_size=2,
        max_size=24,
    ),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_chunked_builder_matches_reference_property(hyperedges, w_min, num_chunks):
    """The one-pass chunked builder equals per-chunk build_oag on any input."""
    hypergraph = Hypergraph.from_hyperedge_lists(hyperedges, num_vertices=30)
    chunks = contiguous_chunks(hypergraph.num_hyperedges, num_chunks)
    fast = build_chunk_oags(hypergraph, "hyperedge", chunks, w_min=w_min)
    for chunk, oag in zip(chunks, fast):
        slow = build_oag(hypergraph, "hyperedge", w_min=w_min, chunk=chunk)
        assert oag.csr == slow.csr


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=19), min_size=2, max_size=5),
        min_size=1,
        max_size=16,
    )
)
@settings(max_examples=25, deadline=None)
def test_oag_vertex_side_weights_property(hyperedges):
    """V-OAG weights equal true shared-hyperedge counts on any input."""
    hypergraph = Hypergraph.from_hyperedge_lists(hyperedges, num_vertices=20)
    oag = build_oag(hypergraph, "vertex", w_min=1)
    for node in range(oag.num_nodes):
        for neighbor, weight in zip(oag.neighbors(node), oag.weights(node)):
            mine = set(map(int, hypergraph.incident_hyperedges(node)))
            theirs = set(map(int, hypergraph.incident_hyperedges(int(neighbor))))
            assert int(weight) == len(mine & theirs)


def test_is_weight_descending_rejects_weightless_csr(figure1):
    """A weight-less CSR is not a valid OAG payload, so the invariant fails.

    This is intentional (not vacuous truth): every builder emits weights,
    and a missing weights array means the structure cannot drive the
    greedy maximal-overlap selection at all.
    """
    from repro.core.oag import Oag

    oag = build_oag(figure1, "hyperedge", w_min=1)
    stripped = Oag(
        csr=Csr(oag.csr.offsets, oag.csr.indices, None),
        side=oag.side,
        w_min=oag.w_min,
        first_id=oag.first_id,
    )
    assert oag.is_weight_descending()
    assert not stripped.is_weight_descending()


def test_is_weight_descending_allows_rise_across_row_boundary():
    """Only within-row rises violate the invariant; row starts may jump up."""
    from repro.core.oag import Oag

    csr = Csr.from_lists([[1], [0, 2], [1]], weights=[[1], [9, 3], [9]])
    assert Oag(csr=csr, side="hyperedge", w_min=1).is_weight_descending()
    bad = Csr.from_lists([[1, 2], [0], [0]], weights=[[3, 9], [3], [9]])
    assert not Oag(csr=bad, side="hyperedge", w_min=1).is_weight_descending()


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    """scipy loads with the first OAG build, not with ``import repro.cli``."""
    loaded = _fresh_interpreter(
        "import sys, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded == "[]"


def test_missing_scipy_builds_with_numpy():
    """Without scipy the first build falls back to the numpy pair count."""
    built = _fresh_interpreter(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.core import oag\n"
        "from repro.hypergraph.hypergraph import Hypergraph\n"
        "g = Hypergraph.from_hyperedge_lists([[0, 4, 6], [1, 2, 3, 5], [0, 2, 4], [1, 3, 6]])\n"
        "h = oag.build_oag(g, 'hyperedge', w_min=1)\n"
        "print(oag.sparse_backend(), h.csr.indices.tolist(), h.csr.weights.tolist())"
    )
    assert built == "None [2, 3, 3, 2, 0, 1, 1, 0] [2, 1, 2, 1, 2, 1, 2, 1]"
