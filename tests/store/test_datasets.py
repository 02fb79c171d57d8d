"""Harness datasets as store artifacts: a load equals a generation, a bad
entry is a corruption and a miss that regenerates, and a runner looks each
dataset up once."""

from __future__ import annotations

import copy
import sys
import threading

import numpy as np
import pytest

import repro.harness.datasets as datasets_mod
from repro.harness.datasets import DATASETS, hypergraph_dataset, load_dataset
from repro.harness.runner import Runner
from repro.hypergraph.hypergraph import _Structure
from repro.store.keys import STORE_SCHEMA_VERSION, dataset_key
from repro.store.serialize import encode
from repro.store.store import ArtifactStore


def _counts(store: ArtifactStore) -> tuple[int, int, int, int]:
    stats = store.stats
    return stats.hits, stats.misses, stats.corruptions, stats.writes


def _assert_same(loaded, generated) -> None:
    assert loaded.name == generated.name
    assert loaded.directed == generated.directed
    for side in ("hyperedges", "vertices"):
        a, b = getattr(loaded, side), getattr(generated, side)
        for field in ("offsets", "indices"):
            assert getattr(a, field).dtype == getattr(b, field).dtype
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.weights is None and b.weights is None
    assert loaded.content_hash() == generated.content_hash()


@pytest.mark.parametrize("key", DATASETS)
def test_a_load_equals_a_generation(key, tmp_path):
    generated = load_dataset(key)
    load_dataset(key, ArtifactStore(tmp_path))
    store = ArtifactStore(tmp_path)
    loaded = load_dataset(key, store)
    assert loaded is not generated
    assert _counts(store) == (1, 0, 0, 0)
    _assert_same(loaded, generated)


def _mis_headed() -> bytes:
    return b"".join(hypergraph_dataset("FS").raw_parts(
        {"schema": STORE_SCHEMA_VERSION, "kind": "gla_resources"}
    ))


def _not_the_transpose() -> bytes:
    fs = hypergraph_dataset("FS")
    other = hypergraph_dataset("OK")
    return b"".join(_Structure("FS", False, fs.hyperedges, other.vertices).raw_parts(
        {"schema": STORE_SCHEMA_VERSION, "kind": "dataset"}
    ))


@pytest.mark.parametrize(
    "payload",
    [
        lambda: b"".join(encode("datasets", hypergraph_dataset("FS")))[:-100],
        _mis_headed,
        _not_the_transpose,
    ],
    ids=["truncated", "mis-headed", "not-the-transpose"],
)
def test_a_bad_entry_is_a_corruption_and_a_miss_and_regenerated(payload, tmp_path):
    """Each payload passes the manifest checksum (``put_bytes`` writes a
    valid manifest), so the decode or the validation must refuse it."""
    key = dataset_key("FS", scale=1.0)
    ArtifactStore(tmp_path).put_bytes("datasets", key, payload())
    store = ArtifactStore(tmp_path)
    loaded = load_dataset("FS", store)
    assert _counts(store) == (0, 1, 1, 1)
    _assert_same(loaded, hypergraph_dataset("FS"))
    again = ArtifactStore(tmp_path)
    _assert_same(load_dataset("FS", again), loaded)
    assert _counts(again) == (1, 0, 0, 0)


def test_without_a_store_nothing_is_written(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("wrote to a store")

    monkeypatch.setattr(ArtifactStore, "put_bytes", refuse)
    assert load_dataset("FS") is hypergraph_dataset("FS")
    assert Runner(cache_dir=None)._dataset("FS") is hypergraph_dataset("FS")


def test_a_runner_looks_each_dataset_up_once(tmp_path):
    """A miss writes the dataset even when this process generated it
    before, so a store's entries never depend on what ran earlier."""
    hypergraph_dataset("FS")
    cold = Runner(cache_dir=tmp_path)
    assert cold._dataset("FS") is cold._dataset("FS")
    assert _counts(cold.store) == (0, 1, 0, 1)
    warm = Runner(cache_dir=tmp_path)
    assert warm._dataset("FS") is warm._dataset("FS")
    assert _counts(warm.store) == (1, 0, 0, 0)


def test_threads_keying_at_once_look_the_dataset_up_once(tmp_path):
    """The service keys requests with one runner on several threads: the
    dataset is still looked up and written once, and every key agrees."""
    from repro.harness.spec import RunSpec

    spec = RunSpec("Hygra", "BFS", "FS").normalized()
    runner = Runner(cache_dir=tmp_path)
    keys: list[str] = []
    threads = [
        threading.Thread(target=lambda: keys.append(runner.key(spec)))
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(keys) == 8 and len(set(keys)) == 1
    assert _counts(runner.store) == (0, 1, 0, 1)


def test_copies_keying_at_once_share_one_load(tmp_path, monkeypatch):
    """The service computes each batch on a copy of its runner: copies on
    several threads at once still load the dataset once, into the memo
    they share with the runner, and every key agrees."""
    from repro.harness.spec import RunSpec

    spec = RunSpec("Hygra", "BFS", "FS").normalized()
    runner = Runner(cache_dir=tmp_path)
    copies = [copy.copy(runner) for _ in range(8)]
    loads: list[str] = []
    dataset = Runner.dataset

    def counted(self, key):
        loads.append(key)
        return dataset(self, key)

    monkeypatch.setattr(Runner, "dataset", counted)
    keys: list[str] = []
    threads = [
        threading.Thread(target=lambda twin=twin: keys.append(twin.key(spec)))
        for twin in copies
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(keys) == 8 and len(set(keys)) == 1
    assert loads == ["FS"]
    assert runner._dataset("FS") is copies[0]._dataset("FS")
    assert not any(twin._results for twin in copies)


def test_a_stored_dataset_keys_runs_as_the_generated_one(tmp_path, monkeypatch):
    """A warm runner reads the dataset and generates nothing, and its run
    keys equal a store-less runner's."""
    from repro.harness.spec import RunSpec

    spec = RunSpec("Hygra", "BFS", "FS").normalized()
    expected = Runner(cache_dir=None).key(spec)
    load_dataset("FS", ArtifactStore(tmp_path))

    def refuse(key):
        raise AssertionError(f"generated {key}")

    monkeypatch.setattr(datasets_mod, "_generate", refuse)
    assert Runner(cache_dir=tmp_path).key(spec) == expected
