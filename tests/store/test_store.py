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


def _plant_neighbours(root):
    """Beside a current entry: a stranded ``v6/`` tree, and three things
    under the root that are not old schema trees: a ``v6.bak`` directory,
    a symlink named ``v5`` and a plain file named ``v4``."""
    store = ArtifactStore(root)
    current = store.put_bytes("results", "k", b"{}")
    stranded = root / "v6" / "results"
    stranded.mkdir(parents=True)
    (stranded / "k.npz").write_bytes(bytes(3000))
    (stranded / "k.npz.manifest").write_bytes(bytes(100))
    (root / "v6.bak").mkdir()
    (root / "v6.bak" / "keep.txt").write_text("shared")
    target = root.parent / "elsewhere"
    target.mkdir()
    (target / "keep.txt").write_text("not ours")
    (root / "v5").symlink_to(target, target_is_directory=True)
    (root / "v4").write_text("a file")
    return store, current


def _neighbours_intact(root):
    return (
        (root / "v6.bak" / "keep.txt").read_text() == "shared"
        and (root / "v5").is_symlink()
        and (root / "v5" / "keep.txt").read_text() == "not ours"
        and (root / "v4").read_text() == "a file"
    )


def test_old_schemas_names_only_stranded_schema_trees(tmp_path):
    store, current = _plant_neighbours(tmp_path / "store")
    assert store.old_schemas() == {"v6": 3100}
    # ls and disk_bytes keep to the current schema.
    assert [entry.path for entry in store.ls()] == [current]
    assert store.disk_bytes() == store.ls()[0].size_bytes


def test_clear_removes_old_schema_trees_and_nothing_else(tmp_path):
    root = tmp_path / "store"
    store, current = _plant_neighbours(root)
    assert store.clear() == 1
    assert not (root / "v6").exists() and not current.exists()
    assert store.old_schemas() == {}
    assert _neighbours_intact(root)


def test_gc_removes_old_schema_trees_and_keeps_what_fits(tmp_path):
    root = tmp_path / "store"
    store, current = _plant_neighbours(root)
    assert store.gc(store.disk_bytes()) == 0
    assert not (root / "v6").exists()
    assert current.exists() and store.stats.evictions == 0
    assert _neighbours_intact(root)
