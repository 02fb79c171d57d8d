"""Warm artifact-store loads vs cold GlaResources builds on OK.

Guards the tentpole claim of the store PR: ``GlaResources.build_or_load``
against a prewarmed store is at least 5× faster than a cold build on the
OK dataset, the loaded artifact is bit-identical to a freshly built one,
and a corrupted on-disk entry degrades to a rebuild rather than a crash.
Each row is the fastest of five calls after a warm-up call: a cold call
meets an emptied store, a corrupted one a freshly truncated entry.
"""

from __future__ import annotations

import numpy as np

from repro.engine import GlaResources
from repro.hypergraph.generators import paper_dataset
from repro.store import ArtifactStore, resources_key

MIN_SPEEDUP = 5.0
NUM_CORES = 16


def test_store_warm_speedup(benchmark, emit, best_time, tmp_path):
    hypergraph = paper_dataset("OK")
    store = ArtifactStore(tmp_path)
    path = store._payload_path(
        "resources", resources_key(hypergraph.content_hash(), NUM_CORES)
    )

    def load():
        return GlaResources.build_or_load(hypergraph, NUM_CORES, store=store)

    def corrupt():
        path.write_bytes(path.read_bytes()[:64])

    def measure():
        cold, cold_s = best_time(load, setup=store.clear)
        # Every cold call missed the emptied store and populated it.
        assert store.stats.hits == 0
        assert store.stats.writes == store.stats.misses > 0
        warm, warm_s = best_time(load)
        assert store.stats.hits > 0
        assert store.stats.writes == store.stats.misses

        # Parity: the loaded artifact is bit-identical to the built one.
        for a, b in zip(
            (*cold.vertex_oags, *cold.hyperedge_oags),
            (*warm.vertex_oags, *warm.hyperedge_oags),
            strict=True,
        ):
            assert np.array_equal(a.csr.offsets, b.csr.offsets)
            assert np.array_equal(a.csr.indices, b.csr.indices)
            assert np.array_equal(a.csr.weights, b.csr.weights)
        assert cold.build_operations == warm.build_operations
        assert cold.storage_bytes() == warm.storage_bytes()

        # Corruption: a truncated payload rebuilds on the next load, no crash.
        writes = store.stats.writes
        rebuilt, rebuild_s = best_time(load, setup=corrupt)
        assert store.stats.corruptions == store.stats.writes - writes > 0
        assert rebuilt.storage_bytes() == cold.storage_bytes()

        rows = [
            ["cold build_or_load (miss)", round(cold_s * 1e3, 1)],
            ["warm build_or_load (hit)", round(warm_s * 1e3, 1)],
            ["corrupted entry (rebuild)", round(rebuild_s * 1e3, 1)],
            ["warm speedup", round(cold_s / warm_s, 1)],
        ]
        title = (
            f"Artifact-store warm speedup — {hypergraph.name} "
            f"({hypergraph.num_hyperedges} hyperedges, {NUM_CORES} cores)"
        )
        return title, ["quantity", "value (ms / ×)"], rows

    rows = emit(
        "store_warm_speedup",
        benchmark.pedantic(measure, rounds=1, iterations=1),
    )
    speedup = rows[3][1]
    assert speedup >= MIN_SPEEDUP, (
        f"warm load only {speedup}x faster than cold build (need ≥{MIN_SPEEDUP}x)"
    )
