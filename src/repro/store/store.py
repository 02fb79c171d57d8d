"""The persistent, content-addressed artifact store.

Disk layout (all under one root directory, e.g. ``$REPRO_CACHE_DIR``)::

    <root>/v<N>/resources/<key>.npz            GlaResources payload
    <root>/v<N>/resources/<key>.npz.manifest   checksum + size sidecar
    <root>/v<N>/results/<key>.json             RunResult payload
    <root>/v<N>/results/<key>.json.manifest

where ``<N>`` is :data:`~repro.store.keys.STORE_SCHEMA_VERSION` (6 today).

Writes are atomic: payloads land in a temp file in the destination
directory and are ``os.replace``-d into place, then the manifest follows —
so concurrent writers (the parallel prewarm pipeline) can target one store
directory safely; the worst case is one writer's identical bytes winning
the rename race.  Loads verify the manifest checksum over the full payload
and treat any mismatch, truncation or schema drift as a *miss*: the corrupt
entry is deleted, a counter is bumped, and the caller rebuilds.

The schema version is part of the path, so a layout change simply makes old
entries invisible rather than misread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.store.keys import STORE_SCHEMA_VERSION
from repro.store.serialize import (
    SerializationError,
    resources_from_bytes,
    resources_to_bytes,
    run_result_from_json,
    run_result_to_json,
)

__all__ = ["ArtifactStore", "StoreStats", "StoreEntry", "resolve_cache_dir"]

#: Environment variable that opts the harness into persistent caching.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_KIND_SUFFIX = {"resources": ".npz", "results": ".json"}


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path | None:
    """The store root: an explicit argument wins, else ``$REPRO_CACHE_DIR``,
    else ``None`` (caching disabled)."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV, "")
    return Path(env) if env else None


@dataclasses.dataclass
class StoreStats:
    """Per-instance cache counters (process lifetime, not persisted)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corruptions: int = 0

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, {self.writes} writes, "
            f"{self.evictions} evictions, {self.corruptions} corruptions"
        )


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One listed artifact (``ls``/``gc`` bookkeeping)."""

    kind: str
    key: str
    path: Path
    size_bytes: int
    mtime: float


class ArtifactStore:
    """Content-addressed on-disk cache for preprocessing artifacts.

    Parameters
    ----------
    root:
        Store directory; created on first write.
    max_bytes:
        Optional size bound.  When set, every write triggers an
        oldest-first (by payload mtime; hits refresh it) eviction pass that
        keeps total payload+manifest bytes at or under the bound.
    """

    def __init__(
        self, root: str | os.PathLike, max_bytes: int | None = None
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.stats = StoreStats()

    # -- paths -------------------------------------------------------------

    @property
    def schema_dir(self) -> Path:
        return self.root / f"v{STORE_SCHEMA_VERSION}"

    def _payload_path(self, kind: str, key: str) -> Path:
        if kind not in _KIND_SUFFIX:
            raise ValueError(f"unknown artifact kind {kind!r}")
        return self.schema_dir / kind / f"{key}{_KIND_SUFFIX[kind]}"

    @staticmethod
    def _manifest_path(payload: Path) -> Path:
        return payload.with_name(payload.name + ".manifest")

    # -- generic blob layer ------------------------------------------------

    @staticmethod
    def _checksum(payload: bytes) -> str:
        return "sha256:" + hashlib.sha256(payload).hexdigest()

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put_bytes(self, kind: str, key: str, payload: bytes) -> Path:
        """Atomically persist one artifact (payload, then manifest)."""
        path = self._payload_path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(path, payload)
        manifest = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "checksum": self._checksum(payload),
            "size": len(payload),
        }
        self._atomic_write(
            self._manifest_path(path), json.dumps(manifest).encode("utf-8")
        )
        self.stats.writes += 1
        if self.max_bytes is not None:
            self.gc(self.max_bytes)
        return path

    def _discard(self, path: Path) -> None:
        for victim in (path, self._manifest_path(path)):
            try:
                victim.unlink()
            except OSError:
                pass

    def get_bytes(self, kind: str, key: str) -> bytes | None:
        """Load and checksum-verify one artifact; ``None`` on miss.

        A corrupt or truncated entry (manifest/payload mismatch) is deleted
        and reported as a miss so callers transparently rebuild.
        """
        path = self._payload_path(kind, key)
        manifest_path = self._manifest_path(path)
        try:
            manifest = json.loads(manifest_path.read_bytes())
            payload = path.read_bytes()
        except (OSError, ValueError):
            if path.exists() or manifest_path.exists():
                # Orphan payload or unreadable manifest: junk, not a clean miss.
                self._discard(path)
                self.stats.corruptions += 1
            self.stats.misses += 1
            return None
        if (
            manifest.get("schema") != STORE_SCHEMA_VERSION
            or manifest.get("checksum") != self._checksum(payload)
        ):
            self._discard(path)
            self.stats.corruptions += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        try:
            os.utime(path)  # LRU touch: keep hot entries out of gc's way
        except OSError:
            pass
        return payload

    # -- typed helpers -----------------------------------------------------

    def put_resources(self, key: str, resources) -> Path:
        return self.put_bytes("resources", key, resources_to_bytes(resources))

    def get_resources(self, key: str):
        payload = self.get_bytes("resources", key)
        if payload is None:
            return None
        try:
            return resources_from_bytes(payload)
        except SerializationError:
            self._corrupt_after_hit("resources", key)
            return None

    def put_run_result(self, key: str, result) -> Path:
        payload = json.dumps(run_result_to_json(result)).encode("utf-8")
        return self.put_bytes("results", key, payload)

    def get_run_result(self, key: str):
        payload = self.get_bytes("results", key)
        if payload is None:
            return None
        try:
            return run_result_from_json(json.loads(payload.decode("utf-8")))
        except (ValueError, SerializationError):
            self._corrupt_after_hit("results", key)
            return None

    def _corrupt_after_hit(self, kind: str, key: str) -> None:
        """Checksum passed but decoding failed: reclassify the hit."""
        self._discard(self._payload_path(kind, key))
        self.stats.hits -= 1
        self.stats.misses += 1
        self.stats.corruptions += 1

    # -- maintenance -------------------------------------------------------

    def ls(self) -> list[StoreEntry]:
        """All intact entries, oldest first."""
        entries = []
        for kind, suffix in _KIND_SUFFIX.items():
            directory = self.schema_dir / kind
            if not directory.is_dir():
                continue
            for path in directory.glob(f"*{suffix}"):
                try:
                    stat = path.stat()
                    size = stat.st_size + self._manifest_path(path).stat().st_size
                except OSError:
                    continue
                entries.append(
                    StoreEntry(
                        kind=kind,
                        key=path.name[: -len(suffix)],
                        path=path,
                        size_bytes=size,
                        mtime=stat.st_mtime,
                    )
                )
        return sorted(entries, key=lambda e: (e.mtime, e.key))

    def disk_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.ls())

    def gc(self, max_bytes: int | None = None) -> int:
        """Evict oldest entries until the store fits ``max_bytes``.

        Returns the number of entries evicted.  ``max_bytes=None`` falls
        back to the instance bound; with neither set this is a no-op.
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None:
            return 0
        entries = self.ls()
        total = sum(entry.size_bytes for entry in entries)
        evicted = 0
        for entry in entries:
            if total <= bound:
                break
            self._discard(entry.path)
            total -= entry.size_bytes
            evicted += 1
        self.stats.evictions += evicted
        return evicted

    def clear(self) -> int:
        """Delete every entry of the current schema; returns the count."""
        entries = self.ls()
        for entry in entries:
            self._discard(entry.path)
        return len(entries)
