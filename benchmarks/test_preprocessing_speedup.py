"""Scalar vs. vectorized preprocessing speedup on a ≥2k-hyperedge input.

Guards the claim of the vectorized builders: the OAG builder is at least 5×
faster than the scalar oracle (``tests/core/oag_reference.py``) on a
generator-produced hypergraph with at least 2k hyperedges, while producing a
bit-identical CSR.  Chain generation and locality-reorder timings ride
along for context: the chain scalar column is the probed walk under a no-op
``ChainProbe()`` (its parity is tested in ``tests/core/test_fast_parity.py``),
the reorder one the numpy-indexed BFS kept in
``tests/hypergraph/reorder_ref.py``.  Each kernel is timed as its fastest
of five calls after a warm-up call (the first OAG build imports scipy).
"""

from __future__ import annotations

import numpy as np

from repro.core.chain import ChainGenerator, ChainProbe
from repro.core.oag import build_oag
from repro.hypergraph.generators import paper_dataset
from repro.hypergraph.reorder import locality_reorder
from tests.core import oag_reference
from tests.hypergraph import reorder_ref

MIN_SPEEDUP = 5.0


def test_preprocessing_speedup(benchmark, emit, best_time):
    hypergraph = paper_dataset("OK")
    assert hypergraph.num_hyperedges >= 2000

    def measure():
        scalar_oag, scalar_s = best_time(
            lambda: oag_reference.build_oag(hypergraph, "hyperedge")
        )
        fast_oag, fast_s = best_time(lambda: build_oag(hypergraph, "hyperedge"))
        assert np.array_equal(scalar_oag.csr.offsets, fast_oag.csr.offsets)
        assert np.array_equal(scalar_oag.csr.indices, fast_oag.csr.indices)
        assert np.array_equal(scalar_oag.csr.weights, fast_oag.csr.weights)
        assert scalar_oag.build_operations == fast_oag.build_operations

        active = np.ones(fast_oag.num_nodes, dtype=bool)
        generator = ChainGenerator()
        scalar_chains, chain_scalar_s = best_time(
            lambda: generator.generate(active, fast_oag, probe=ChainProbe())
        )
        fast_chains, chain_fast_s = best_time(
            lambda: generator.generate(active, fast_oag)
        )
        assert scalar_chains.chains == fast_chains.chains

        scalar_reorder, reorder_scalar_s = best_time(
            lambda: reorder_ref.locality_reorder(hypergraph)
        )
        fast_reorder, reorder_fast_s = best_time(lambda: locality_reorder(hypergraph))
        assert np.array_equal(scalar_reorder.vertex_perm, fast_reorder.vertex_perm)
        assert (
            scalar_reorder.hypergraph.content_hash()
            == fast_reorder.hypergraph.content_hash()
        )

        rows = [
            [
                "OAG build (H-OAG)",
                round(scalar_s * 1e3, 1),
                round(fast_s * 1e3, 1),
                round(scalar_s / fast_s, 1),
            ],
            [
                "Chain generation (all active)",
                round(chain_scalar_s * 1e3, 1),
                round(chain_fast_s * 1e3, 1),
                round(chain_scalar_s / chain_fast_s, 1),
            ],
            [
                "Locality reorder",
                round(reorder_scalar_s * 1e3, 1),
                round(reorder_fast_s * 1e3, 1),
                round(reorder_scalar_s / reorder_fast_s, 1),
            ],
        ]
        title = (
            f"Preprocessing fast-path speedup — {hypergraph.name} "
            f"({hypergraph.num_hyperedges} hyperedges)"
        )
        headers = ["kernel", "scalar (ms)", "fast (ms)", "speedup"]
        return title, headers, rows

    rows = emit(
        "preprocessing_speedup",
        benchmark.pedantic(measure, rounds=1, iterations=1),
    )
    oag_speedup = rows[0][3]
    assert oag_speedup >= MIN_SPEEDUP, (
        f"vectorized OAG build only {oag_speedup}x faster (need ≥{MIN_SPEEDUP}x)"
    )
