"""Tests for the synthetic dataset generators."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hypergraph.generators import (
    AffiliationConfig,
    PAPER_DATASETS,
    _PAPER_PRESETS,
    generate_affiliation_hypergraph,
    generate_uniform_random_hypergraph,
    paper_dataset,
    planted_chain_hypergraph,
    two_uniform_graph,
)
from tests.hypergraph import generator_ref

#: The Table II stand-ins' ``content_hash()``: every run key and table
#: depends on these graphs, so a drift fails here, by dataset, first.
STAND_IN_HASHES = {
    "FS": "fad75b09a687a975658625d406e5e539b54d229c8f900da3b867f7b2fb3f0975",
    "OK": "7d127b3eb0ff361c12b249648b117fb8d4df2a204d416cdfbbe2322a80ee4229",
    "LJ": "9c5318b5ed638c6ecf0dec2b64a2fb738bb60057710a0ca8940318712b2231e1",
    "WEB": "f71910115f4bf40ddefac12cbfbb3189736d637d8c3068ff2e59a2625a868ee6",
    "OG": "420ee5ec4e3e9656a926824d15201fcc1c9d10954f8b975e70abfe94679c3003",
}


@functools.lru_cache(maxsize=None)
def _stand_in(key):
    return paper_dataset(key)


def _config(**overrides):
    base = dict(
        num_vertices=200,
        num_hyperedges=100,
        mean_hyperedge_degree=8.0,
        num_communities=10,
        seed=3,
    )
    base.update(overrides)
    return AffiliationConfig(**base)


def test_affiliation_dimensions():
    hypergraph = generate_affiliation_hypergraph(_config())
    assert hypergraph.num_vertices == 200
    assert hypergraph.num_hyperedges == 100


@pytest.mark.parametrize(
    "overrides", [{"num_communities": 0}, {"num_vertices": 0}]
)
def test_affiliation_rejects_empty_ranges(overrides):
    """No communities or no vertices: an error, as ``randrange(0)`` raises."""
    for generate in (
        generate_affiliation_hypergraph,
        generator_ref.generate_affiliation_hypergraph,
    ):
        with pytest.raises(ValueError):
            generate(_config(**overrides))


def test_affiliation_deterministic():
    a = generate_affiliation_hypergraph(_config())
    b = generate_affiliation_hypergraph(_config())
    assert a.hyperedges == b.hyperedges


def test_affiliation_seed_changes_structure():
    a = generate_affiliation_hypergraph(_config(seed=3))
    b = generate_affiliation_hypergraph(_config(seed=4))
    assert a.hyperedges != b.hyperedges


def test_min_hyperedge_degree_respected():
    hypergraph = generate_affiliation_hypergraph(_config(min_hyperedge_degree=2))
    for h in range(hypergraph.num_hyperedges):
        assert hypergraph.hyperedge_degree(h) >= 2


def test_vertex_run_colocates_communities():
    # With vertex_run=8, each run of 8 consecutive ids belongs to exactly one
    # community, so hyperedges predominantly touch few 8-aligned blocks.
    config = _config(vertex_run=8, overlap_bias=1.0, num_communities=5)
    hypergraph = generate_affiliation_hypergraph(config)
    blocks_per_hyperedge = [
        len({int(v) // 8 for v in hypergraph.incident_vertices(h)})
        for h in range(hypergraph.num_hyperedges)
    ]
    degrees = [hypergraph.hyperedge_degree(h) for h in range(hypergraph.num_hyperedges)]
    # Far fewer blocks than members on average (co-location).
    assert sum(blocks_per_hyperedge) < 0.9 * sum(degrees)


def test_hub_bias_creates_hot_vertices():
    config = _config(hubs_per_community=2, hub_bias=0.6)
    hypergraph = generate_affiliation_hypergraph(config)
    degrees = sorted(
        (hypergraph.vertex_degree(v) for v in range(hypergraph.num_vertices)),
        reverse=True,
    )
    # The hottest vertices dominate the median by a wide margin.
    median = degrees[len(degrees) // 2]
    assert degrees[0] >= max(4, 3 * max(median, 1))


def test_uniform_random_is_k_uniform():
    hypergraph = generate_uniform_random_hypergraph(50, 20, hyperedge_degree=5)
    for h in range(20):
        assert hypergraph.hyperedge_degree(h) == 5


def test_planted_chain_structure():
    hypergraph = planted_chain_hypergraph(5, overlap=2, fresh=2)
    # Consecutive hyperedges share exactly `overlap` vertices.
    for h in range(4):
        a = set(map(int, hypergraph.incident_vertices(h)))
        b = set(map(int, hypergraph.incident_vertices(h + 1)))
        assert len(a & b) == 2
    # Non-consecutive hyperedges share nothing.
    a = set(map(int, hypergraph.incident_vertices(0)))
    c = set(map(int, hypergraph.incident_vertices(2)))
    assert not (a & c)


def test_two_uniform_graph():
    graph = two_uniform_graph([(0, 1), (1, 2)])
    assert graph.num_hyperedges == 2
    assert all(graph.hyperedge_degree(h) == 2 for h in range(2))


def test_paper_dataset_names_and_order():
    assert PAPER_DATASETS == ("FS", "OK", "LJ", "WEB", "OG")
    for key in PAPER_DATASETS:
        hypergraph = paper_dataset(key, scale=0.1)
        assert hypergraph.name == key
        assert hypergraph.num_hyperedges > 0


def test_paper_dataset_unknown_key():
    with pytest.raises(KeyError):
        paper_dataset("nope")


def test_paper_dataset_ratio_ordering():
    """FS and WEB keep |V| > |H|; OK, LJ, OG keep |H| > |V| (Table II)."""
    shapes = {key: paper_dataset(key, scale=0.2) for key in PAPER_DATASETS}
    for key in ("FS", "WEB"):
        assert shapes[key].num_vertices > shapes[key].num_hyperedges
    for key in ("OK", "LJ", "OG"):
        assert shapes[key].num_hyperedges > shapes[key].num_vertices


def test_paper_dataset_scale_shrinks():
    full = paper_dataset("FS")
    small = paper_dataset("FS", scale=0.25)
    assert small.num_vertices < full.num_vertices
    assert small.num_hyperedges < full.num_hyperedges


def test_rmat_bipartite_shape_and_skew():
    from repro.hypergraph.generators import generate_rmat_bipartite
    import numpy as np

    hypergraph = generate_rmat_bipartite(256, 128, 2000, seed=5)
    assert hypergraph.num_vertices == 256
    assert hypergraph.num_hyperedges == 128
    degrees = np.diff(hypergraph.vertices.offsets)
    # R-MAT skew: the hottest vertex far exceeds the median.
    assert degrees.max() >= 5 * max(int(np.median(degrees)), 1)


def test_rmat_deterministic():
    from repro.hypergraph.generators import generate_rmat_bipartite

    a = generate_rmat_bipartite(64, 32, 400, seed=9)
    b = generate_rmat_bipartite(64, 32, 400, seed=9)
    assert a.hyperedges == b.hyperedges


# -- parity with the reference generator ---------------------------------------


def _assert_matches_reference(config):
    fast = generate_affiliation_hypergraph(config)
    reference = generator_ref.generate_affiliation_hypergraph(config)
    assert fast.hyperedges == reference.hyperedges
    assert fast.vertices == reference.vertices


@pytest.mark.parametrize("key", PAPER_DATASETS)
def test_stand_in_content_hash(key):
    assert _stand_in(key).content_hash() == STAND_IN_HASHES[key]


@pytest.mark.parametrize("key", PAPER_DATASETS)
def test_stand_in_matches_reference(key):
    reference = generator_ref.generate_affiliation_hypergraph(_PAPER_PRESETS[key])
    assert _stand_in(key).hyperedges == reference.hyperedges


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("key", ["WEB", "OG"])
def test_benchmark_graphs_match_reference(key, scale):
    """``perf/``'s graphs: a preset resized and seeded as ``--seed 1`` does."""
    base = _PAPER_PRESETS[key]
    digest = hashlib.sha256(f"1:{key.lower()}".encode()).hexdigest()
    _assert_matches_reference(dataclasses.replace(
        base,
        num_vertices=int(base.num_vertices * scale),
        num_hyperedges=int(base.num_hyperedges * scale),
        num_communities=max(4, math.ceil(base.num_communities * scale)),
        seed=int(digest[:8], 16),
    ))


@st.composite
def _affiliation_configs(draw):
    return AffiliationConfig(
        num_vertices=draw(st.integers(1, 60)),
        num_hyperedges=draw(st.integers(1, 30)),
        mean_hyperedge_degree=draw(st.floats(1.0, 12.0)),
        # More communities than vertices leaves one-member pools.
        num_communities=draw(st.integers(1, 80)),
        overlap_bias=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        degree_exponent=draw(st.sampled_from([1.5, 2.0, 3.0])),
        min_hyperedge_degree=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        hubs_per_community=draw(st.integers(0, 12)),
        hub_bias=draw(st.sampled_from([0.0, 0.2, 0.6, 1.0])),
        vertex_run=draw(st.integers(1, 6)),
        hyperedge_run=draw(st.integers(1, 4)),
    )


_CORNER = AffiliationConfig(
    num_vertices=12, num_hyperedges=10, mean_hyperedge_degree=4.0,
    num_communities=20, seed=5,
)


@settings(max_examples=60, deadline=None)
@given(config=_affiliation_configs())
@example(config=_CORNER)  # one-member pools
@example(config=dataclasses.replace(_CORNER, hubs_per_community=9, hub_bias=0.5))
@example(config=dataclasses.replace(_CORNER, hubs_per_community=0, hub_bias=0.5))
@example(config=dataclasses.replace(_CORNER, num_communities=3, overlap_bias=0.0))
@example(config=dataclasses.replace(_CORNER, num_communities=3, overlap_bias=1.0))
@example(config=dataclasses.replace(_CORNER, vertex_run=4, hyperedge_run=3))
def test_affiliation_matches_reference(config):
    _assert_matches_reference(config)
