"""The blob layer: atomic writes, checksum verification, GC, stats."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.store import STORE_SCHEMA_VERSION, ArtifactStore


def test_roundtrip_and_stats(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.get_bytes("resources", "k1") is None
    store.put_bytes("resources", "k1", b"payload")
    assert store.get_bytes("resources", "k1") == b"payload"
    assert store.stats.misses == 1
    assert store.stats.writes == 1
    assert store.stats.hits == 1


def test_unknown_kind_rejected(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError):
        store.put_bytes("nonsense", "k", b"x")


def test_truncated_payload_is_a_miss_and_deleted(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put_bytes("resources", "k1", b"full payload bytes")
    path.write_bytes(b"full pay")  # truncate
    assert store.get_bytes("resources", "k1") is None
    assert store.stats.corruptions == 1
    assert not path.exists()
    assert not path.with_name(path.name + ".manifest").exists()


def test_tampered_manifest_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put_bytes("results", "k2", b"{}")
    manifest_path = path.with_name(path.name + ".manifest")
    manifest = json.loads(manifest_path.read_bytes())
    manifest["checksum"] = "sha256:" + "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    assert store.get_bytes("results", "k2") is None
    assert store.stats.corruptions == 1


@pytest.mark.parametrize(
    "kind, key, manifest_of",
    [
        ("results", "other", lambda manifest: manifest),
        ("resources", "k2", lambda manifest: manifest),
        ("results", "k2", lambda manifest: [manifest]),
    ],
    ids=["another-key", "another-kind", "not-an-object"],
)
def test_an_entry_read_as_another_entry_is_a_miss(tmp_path, kind, key, manifest_of):
    """An intact payload and manifest read under a kind or key they were
    not written for are a corruption and a miss, never a hit."""
    source = ArtifactStore(tmp_path).put_bytes("results", "k2", b"{}")
    manifest = json.loads(source.with_name(source.name + ".manifest").read_bytes())
    store = ArtifactStore(tmp_path)
    target = store._payload_path(kind, key)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(source.read_bytes())
    target.with_name(target.name + ".manifest").write_text(
        json.dumps(manifest_of(manifest))
    )
    assert store.get_bytes(kind, key) is None
    assert (store.stats.hits, store.stats.misses, store.stats.corruptions) == (0, 1, 1)
    assert not target.exists()


def test_schema_drift_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put_bytes("results", "k3", b"{}")
    manifest_path = path.with_name(path.name + ".manifest")
    manifest = json.loads(manifest_path.read_bytes())
    manifest["schema"] = STORE_SCHEMA_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    assert store.get_bytes("results", "k3") is None


def test_orphan_payload_without_manifest_is_cleaned(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put_bytes("resources", "k4", b"data")
    path.with_name(path.name + ".manifest").unlink()
    assert store.get_bytes("resources", "k4") is None
    assert not path.exists()
    assert store.stats.corruptions == 1


def test_ls_and_clear(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put_bytes("resources", "a", b"xx")
    store.put_bytes("results", "b", b"{}")
    entries = store.ls()
    assert {(e.kind, e.key) for e in entries} == {("resources", "a"), ("results", "b")}
    assert store.disk_bytes() == sum(e.size_bytes for e in entries)
    assert store.clear() == 2
    assert store.ls() == []


def test_gc_evicts_oldest_first(tmp_path):
    store = ArtifactStore(tmp_path)
    paths = {}
    for i, key in enumerate(("old", "mid", "new")):
        paths[key] = store.put_bytes("resources", key, bytes(4096))
        # Space the mtimes out explicitly; filesystem timestamps may be coarse.
        os.utime(paths[key], (time.time() - 100 + i, time.time() - 100 + i))
    sizes = {e.key: e.size_bytes for e in store.ls()}
    keep_two = sizes["mid"] + sizes["new"]
    assert store.gc(keep_two) == 1
    assert not paths["old"].exists()
    assert paths["mid"].exists() and paths["new"].exists()
    assert store.stats.evictions == 1


def test_size_bound_triggers_gc_on_write(tmp_path):
    store = ArtifactStore(tmp_path, max_bytes=10 * 1024)
    old = store.put_bytes("resources", "old", bytes(6 * 1024))
    os.utime(old, (time.time() - 100, time.time() - 100))
    store.put_bytes("resources", "new", bytes(6 * 1024))
    assert not old.exists()
    assert store.get_bytes("resources", "new") is not None


def test_hit_refreshes_mtime_for_lru(tmp_path):
    store = ArtifactStore(tmp_path)
    hot = store.put_bytes("resources", "hot", bytes(2048))
    cold = store.put_bytes("resources", "cold", bytes(2048))
    past = time.time() - 100
    os.utime(hot, (past, past))
    os.utime(cold, (past + 1, past + 1))
    store.get_bytes("resources", "hot")  # touch
    sizes = {e.key: e.size_bytes for e in store.ls()}
    store.gc(sizes["hot"])
    assert hot.exists() and not cold.exists()
