"""Warm artifact-store loads vs cold builds on OK: GlaResources and the
dataset itself.

Guards the store's claim: ``GlaResources.build_or_load`` against a
prewarmed store is at least 5× faster than a cold build on the OK dataset,
the loaded artifact is bit-identical to a freshly built one, and a
corrupted on-disk entry degrades to a rebuild rather than a crash.  The
dataset rows time ``load_dataset("OK", store)`` the same way: generation
against an emptied store and module cache, then the load from a filled
store, whose arrays and content hash equal the generated ones.  Each row
is the fastest of five calls after a warm-up call: a cold call meets an
emptied store, a corrupted one a freshly truncated entry.
"""

from __future__ import annotations

import numpy as np

from repro.engine import GlaResources
from repro.harness.datasets import clear_dataset_cache, load_dataset
from repro.hypergraph.generators import paper_dataset
from repro.store import ArtifactStore, dataset_key, resources_key

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

    def _dataset_rows(datasets):
        def cold_setup():
            datasets.clear()
            clear_dataset_cache()

        generated, generated_s = best_time(
            lambda: load_dataset("OK", datasets), setup=cold_setup
        )
        assert datasets.stats.hits == 0
        assert datasets.stats.writes == datasets.stats.misses > 0
        loaded, loaded_s = best_time(lambda: load_dataset("OK", datasets))
        assert loaded is not generated and datasets.stats.hits > 0
        for side in ("hyperedges", "vertices"):
            a, b = getattr(generated, side), getattr(loaded, side)
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.indices, b.indices)
        assert loaded.content_hash() == generated.content_hash()

        # A truncated entry is a corruption, and the dataset is regenerated.
        entry = datasets._payload_path("datasets", dataset_key("OK", scale=1.0))
        entry.write_bytes(entry.read_bytes()[:64])
        corruptions = datasets.stats.corruptions
        regenerated = load_dataset("OK", datasets)
        assert datasets.stats.corruptions == corruptions + 1
        assert regenerated.content_hash() == generated.content_hash()
        return generated_s, loaded_s

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

        generated_s, loaded_s = _dataset_rows(ArtifactStore(tmp_path / "datasets"))
        rows = [
            ["cold build_or_load (miss)", round(cold_s * 1e3, 1)],
            ["warm build_or_load (hit)", round(warm_s * 1e3, 1)],
            ["corrupted entry (rebuild)", round(rebuild_s * 1e3, 1)],
            ["warm speedup", round(cold_s / warm_s, 1)],
            ["cold load_dataset (miss)", round(generated_s * 1e3, 1)],
            ["warm load_dataset (hit)", round(loaded_s * 1e3, 1)],
            ["dataset warm speedup", round(generated_s / loaded_s, 1)],
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
