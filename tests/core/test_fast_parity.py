"""Scalar vs. vectorized parity for OAG construction and chain generation.

The production builders must be drop-in for the scalar oracles: bit-identical
CSR payloads (offsets, indices, weights — values *and* dtypes), identical
``build_operations`` (Figure 21(a) accounting), identical chain sets, and
identical generation counters.  The OAG oracle is ``oag_reference`` beside
this file; the chain oracle is ``ChainGenerator``'s probed scalar walk,
forced by passing a no-op ``ChainProbe()``.  Both OAG backends are covered —
the SpGEMM path (scipy, when available) and the pure-NumPy fallback (forced
by nulling the module's ``_sparse`` handle; the ``backend`` fixture checks
which one counted the pairs).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.oag as oag_module
from repro.core.chain import ChainGenerator, ChainProbe
from repro.core.oag import build_chunk_oags, build_oag
from repro.hypergraph.csr import Csr
from repro.hypergraph.generators import (
    AffiliationConfig,
    generate_affiliation_hypergraph,
    generate_rmat_bipartite,
    generate_uniform_random_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import Chunk, contiguous_chunks
from tests.core import oag_reference

W_MINS = [1, 3, 8]
D_MAXES = [1, 4, 16]


def _hypergraphs():
    affiliation = generate_affiliation_hypergraph(
        AffiliationConfig(
            num_vertices=180,
            num_hyperedges=140,
            mean_hyperedge_degree=9.0,
            min_hyperedge_degree=3,
            num_communities=7,
            overlap_bias=0.85,
            vertex_run=6,
            seed=11,
        ),
        name="parity-affiliation",
    )
    uniform = generate_uniform_random_hypergraph(
        num_vertices=150, num_hyperedges=110, hyperedge_degree=6, seed=3
    )
    rmat = generate_rmat_bipartite(
        num_vertices=128, num_hyperedges=96, num_bipartite_edges=700, seed=9
    )
    return [affiliation, uniform, rmat]


@pytest.fixture(params=["affiliation", "uniform", "rmat"])
def hypergraph(request):
    by_name = dict(zip(["affiliation", "uniform", "rmat"], _hypergraphs()))
    return by_name[request.param]


@pytest.fixture(params=["scipy", "numpy"])
def backend(request, monkeypatch):
    """Run each parity test against both fast backends, and prove which ran.

    The numpy backend must count its pairs through ``_expand_pairs`` and
    the scipy backend never: a loader that re-imported scipy over the
    nulled handle would otherwise pass the ``numpy`` IDs on SpGEMM.
    """
    if request.param == "numpy":
        monkeypatch.setattr(oag_module, "_sparse", None)
    elif oag_module.sparse_backend() is None:  # pragma: no cover - scipy missing
        pytest.skip("scipy not installed")
    expansions = []
    expand_pairs = oag_module._expand_pairs

    def counting_expand_pairs(vals, lens):
        expansions.append(vals.size)
        return expand_pairs(vals, lens)

    monkeypatch.setattr(oag_module, "_expand_pairs", counting_expand_pairs)
    yield request.param
    assert bool(expansions) == (request.param == "numpy")


def assert_identical_oags(scalar, fast):
    assert np.array_equal(scalar.csr.offsets, fast.csr.offsets)
    assert np.array_equal(scalar.csr.indices, fast.csr.indices)
    assert np.array_equal(scalar.csr.weights, fast.csr.weights)
    assert scalar.csr.offsets.dtype == fast.csr.offsets.dtype
    assert scalar.csr.indices.dtype == fast.csr.indices.dtype
    assert scalar.csr.weights.dtype == fast.csr.weights.dtype
    assert scalar.first_id == fast.first_id
    assert scalar.build_operations == fast.build_operations


@pytest.mark.parametrize("w_min", W_MINS)
@pytest.mark.parametrize("side", ["hyperedge", "vertex"])
def test_build_oag_parity(hypergraph, backend, side, w_min):
    scalar = oag_reference.build_oag(hypergraph, side, w_min=w_min)
    fast = build_oag(hypergraph, side, w_min=w_min)
    assert_identical_oags(scalar, fast)


@pytest.mark.parametrize("w_min", W_MINS)
def test_build_oag_chunk_parity(hypergraph, backend, w_min):
    """A chunk restriction (first_id != 0) must survive vectorization."""
    universe = hypergraph.num_hyperedges
    chunk = contiguous_chunks(universe, 3)[1]
    assert chunk.first != 0
    scalar = oag_reference.build_oag(
        hypergraph, "hyperedge", w_min=w_min, chunk=chunk
    )
    fast = build_oag(hypergraph, "hyperedge", w_min=w_min, chunk=chunk)
    assert_identical_oags(scalar, fast)


@pytest.mark.parametrize("w_min", W_MINS)
@pytest.mark.parametrize("side", ["hyperedge", "vertex"])
def test_build_chunk_oags_parity(hypergraph, backend, side, w_min):
    chunks = contiguous_chunks(hypergraph.side(side).num_rows, 4)
    assert_chunk_parity(hypergraph, side, chunks, w_min)


def assert_chunk_parity(hypergraph, side, chunks, w_min):
    scalars = oag_reference.build_chunk_oags(hypergraph, side, chunks, w_min)
    fasts = build_chunk_oags(hypergraph, side, chunks, w_min)
    assert len(scalars) == len(fasts) == len(chunks)
    for scalar, fast in zip(scalars, fasts):
        assert_identical_oags(scalar, fast)


def _shuffled_rows(csr, rng):
    rows = [rng.permutation(csr.neighbors(row)) for row in range(csr.num_rows)]
    return Csr.from_lists(rows)


@pytest.mark.parametrize("w_min", [1, 3])
@pytest.mark.parametrize("side", ["hyperedge", "vertex"])
def test_unsorted_pivot_rows_parity(hypergraph, backend, side, w_min):
    """Pivot rows need not list their members in ascending order."""
    rng = np.random.default_rng(5)
    shuffled = Hypergraph(
        _shuffled_rows(hypergraph.hyperedges, rng),
        _shuffled_rows(hypergraph.vertices, rng),
    )
    pivot = shuffled.vertices if side == "hyperedge" else shuffled.hyperedges
    assert any(np.any(np.diff(pivot.neighbors(r)) < 0) for r in range(pivot.num_rows))
    assert_identical_oags(
        oag_reference.build_oag(shuffled, side, w_min=w_min),
        build_oag(shuffled, side, w_min=w_min),
    )
    assert_chunk_parity(
        shuffled, side, contiguous_chunks(shuffled.side(side).num_rows, 4), w_min
    )


@pytest.mark.parametrize("side", ["hyperedge", "vertex"])
def test_empty_chunks_parity(hypergraph, backend, side):
    """More cores than elements leaves empty chunks at the tail; a hand-cut
    list puts them first and in the middle too."""
    universe = hypergraph.side(side).num_rows
    assert_chunk_parity(
        hypergraph, side, contiguous_chunks(universe, universe + 3), 1
    )
    third = universe // 3
    chunks = [
        Chunk(0, 0, 0), Chunk(1, 0, third), Chunk(2, third, third),
        Chunk(3, third, universe), Chunk(4, universe, universe),
    ]
    assert_chunk_parity(hypergraph, side, chunks, 1)


@pytest.mark.parametrize("w_min", [1, 3])
def test_build_oag_vertex_chunk_parity(hypergraph, backend, w_min):
    """A partial vertex-side chunk drops the members outside it."""
    chunk = contiguous_chunks(hypergraph.num_vertices, 3)[1]
    assert_identical_oags(
        oag_reference.build_oag(hypergraph, "vertex", w_min=w_min, chunk=chunk),
        build_oag(hypergraph, "vertex", w_min=w_min, chunk=chunk),
    )


@pytest.mark.parametrize("side", ["hyperedge", "vertex"])
def test_no_bipartite_edges_parity(backend, side):
    edgeless = Hypergraph.from_hyperedge_lists([[], [], []], num_vertices=5)
    assert_identical_oags(
        oag_reference.build_oag(edgeless, side, w_min=1),
        build_oag(edgeless, side, w_min=1),
    )
    assert_chunk_parity(
        edgeless, side, contiguous_chunks(edgeless.side(side).num_rows, 2), 1
    )


def _active_patterns(size, seed=17):
    rng = np.random.default_rng(seed)
    return {
        "all": np.ones(size, dtype=bool),
        "none": np.zeros(size, dtype=bool),
        "random": rng.random(size) < 0.5,
        "every-third": np.arange(size) % 3 == 0,
    }


def assert_identical_chain_sets(scalar, fast):
    assert scalar.chains == fast.chains
    assert all(
        isinstance(element, int) for chain in fast.chains for element in chain
    )
    assert scalar.root_scans == fast.root_scans
    assert scalar.offsets_fetches == fast.offsets_fetches
    assert scalar.neighbor_inspections == fast.neighbor_inspections


@pytest.mark.parametrize("d_max", D_MAXES)
@pytest.mark.parametrize("w_min", W_MINS)
def test_chain_generation_parity(hypergraph, d_max, w_min):
    oag = build_oag(hypergraph, "hyperedge", w_min=w_min)
    generator = ChainGenerator(d_max=d_max)
    for active in _active_patterns(oag.num_nodes).values():
        scalar = generator.generate(active, oag, probe=ChainProbe())
        fast = generator.generate(active, oag)
        assert_identical_chain_sets(scalar, fast)


@pytest.mark.parametrize("d_max", D_MAXES)
def test_chain_generation_parity_chunked(hypergraph, d_max):
    """Chunk OAGs (global ids = first_id + local) keep parity too."""
    universe = hypergraph.num_hyperedges
    chunks = contiguous_chunks(universe, 3)
    oags = build_chunk_oags(hypergraph, "hyperedge", chunks, w_min=1)
    generator = ChainGenerator(d_max=d_max)
    for chunk, oag in zip(chunks, oags):
        assert oag.first_id == chunk.first
        for active in _active_patterns(oag.num_nodes, seed=chunk.core).values():
            scalar = generator.generate(active, oag, probe=ChainProbe())
            fast = generator.generate(active, oag)
            assert_identical_chain_sets(scalar, fast)


def test_probe_forces_scalar_path(hypergraph):
    """Attaching a probe must route through the instrumented scalar walk."""

    class CountingProbe(ChainProbe):
        def __init__(self):
            self.root_scans = 0
            self.inspections = 0

        def on_root_scan(self, element):
            self.root_scans += 1

        def on_neighbor_inspect(self, node, position):
            self.inspections += 1

    oag = build_oag(hypergraph, "hyperedge", w_min=1)
    active = np.ones(oag.num_nodes, dtype=bool)
    probe = CountingProbe()
    result = ChainGenerator().generate(active, oag, probe=probe)
    # Probe hooks fired once per counter increment — proof the scalar
    # instrumented walk ran.
    assert probe.root_scans == result.root_scans == oag.num_nodes
    assert probe.inspections == result.neighbor_inspections > 0
