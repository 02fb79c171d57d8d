"""The persistent, content-addressed artifact store.

Disk layout (all under one root directory, e.g. ``$REPRO_CACHE_DIR``)::

    <root>/v<N>/<kind>/<key>.rec             payload
    <root>/v<N>/<kind>/<key>.rec.manifest    checksum + size sidecar

where ``<N>`` is :data:`~repro.store.keys.STORE_SCHEMA_VERSION` (7 today)
and ``<kind>`` is ``datasets`` (harness datasets), ``resources``
(``GlaResources``) or ``results`` (``RunResult``).  Every payload is a
record's raw form (:mod:`repro.store.serialize`), uncompressed.

Writes are atomic: a payload streams part by part into a temp file in the
destination directory, its checksum taken on the way, and is
``os.replace``-d into place, then the manifest follows — so concurrent
writers (the parallel prewarm pipeline) can target one store directory
safely; the worst case is one writer's identical bytes winning the rename
race.  Loads verify the manifest (its schema, and the kind and key it was
written for) and its checksum over the full payload, and treat any
mismatch, truncation or schema drift as a *miss*: the corrupt entry is
deleted, a counter is bumped, and the caller rebuilds.

The schema version is part of the path, and every payload carries a
``schema``/``kind`` header: an entry in another layout reads as a miss,
never as a misread artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.store.keys import STORE_SCHEMA_VERSION
from repro.store.serialize import KINDS, Parts, decode, encode

__all__ = ["ArtifactStore", "StoreStats", "StoreEntry", "resolve_cache_dir"]

#: Environment variable that opts the harness into persistent caching.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The suffix of every payload, whatever its kind (one directory each).
_SUFFIX = ".rec"


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
        if kind not in KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        return self.schema_dir / kind / f"{key}{_SUFFIX}"

    @staticmethod
    def _manifest_path(payload: Path) -> Path:
        return payload.with_name(payload.name + ".manifest")

    # -- generic blob layer ------------------------------------------------

    @staticmethod
    def _checksum(payload: bytes) -> str:
        return "sha256:" + hashlib.sha256(payload).hexdigest()

    @staticmethod
    def _atomic_write(path: Path, parts: Parts) -> tuple[str, int]:
        """Stream ``parts`` into ``path`` through a temp file; the checksum
        and size of what was written."""
        digest, size = hashlib.sha256(), 0
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                for part in parts:
                    fh.write(part)
                    digest.update(part)
                    size += memoryview(part).nbytes
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return "sha256:" + digest.hexdigest(), size

    def put_bytes(self, kind: str, key: str, payload: bytes) -> Path:
        """Atomically persist one artifact (payload, then manifest)."""
        return self._write(kind, key, [payload])

    def _write(self, kind: str, key: str, parts: Parts) -> Path:
        """:meth:`put_bytes` of the payload ``parts`` joins, never joined."""
        path = self._payload_path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        checksum, size = self._atomic_write(path, parts)
        manifest = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "checksum": checksum,
            "size": size,
        }
        self._atomic_write(
            self._manifest_path(path), [json.dumps(manifest).encode("utf-8")]
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
        expected = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "checksum": self._checksum(payload),
        }
        if not isinstance(manifest, dict) or any(
            manifest.get(field) != value for field, value in expected.items()
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

    def put_dataset(self, key: str, hypergraph) -> Path:
        return self._write("datasets", key, encode("datasets", hypergraph))

    def get_dataset(self, key: str):
        return self._get("datasets", key)

    def put_resources(self, key: str, resources) -> Path:
        return self._write("resources", key, encode("resources", resources))

    def get_resources(self, key: str):
        return self._get("resources", key)

    def put_run_result(self, key: str, result) -> Path:
        return self._write("results", key, encode("results", result))

    def get_run_result(self, key: str):
        return self._get("results", key)

    def _get(self, kind: str, key: str):
        """One decoded artifact, or ``None`` on a miss.  A payload that
        passed its checksum but does not decode (``ValueError``, which
        :class:`~repro.store.serialize.SerializationError` is) reclassifies
        the hit as a corruption and a miss."""
        payload = self.get_bytes(kind, key)
        if payload is None:
            return None
        try:
            return decode(kind, payload)
        except ValueError:
            self._discard(self._payload_path(kind, key))
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.corruptions += 1
            return None

    # -- maintenance -------------------------------------------------------

    def ls(self) -> list[StoreEntry]:
        """All intact entries, oldest first."""
        entries = []
        for kind in KINDS:
            directory = self.schema_dir / kind
            if not directory.is_dir():
                continue
            for path in directory.glob(f"*{_SUFFIX}"):
                try:
                    stat = path.stat()
                    size = stat.st_size + self._manifest_path(path).stat().st_size
                except OSError:
                    continue
                entries.append(
                    StoreEntry(
                        kind=kind,
                        key=path.name[: -len(_SUFFIX)],
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
