"""Artifact (de)serialization: ``GlaResources`` ↔ npz, ``RunResult`` ↔ JSON.

The npz payload is self-describing: a ``meta`` JSON blob records the
schema version, build parameters and per-OAG metadata, and the CSR arrays
are stored verbatim so a load reproduces the in-memory artifact
bit-identically (the parity the warm-speedup benchmark asserts).  Each
side's per-chunk CSRs are concatenated into three flat arrays with extents
in the metadata — one zip member per *side*, not per chunk, because the
per-member overhead of ``np.load`` would otherwise dominate warm loads on
many-core resource sets.

``RunResult`` payloads are JSON: the value arrays at this repo's scale are
thousands of elements, so ``tolist`` round-tripping is cheap and keeps the
entries greppable on disk.  The optional ``telemetry``, ``energy`` and
``coherence`` records are written as ``null`` when the run lacks them.
"""

from __future__ import annotations

import io
import json

import numpy as np

from repro.engine.resources import GlaResources
from repro.engine.result import RunResult
from repro.errors import ConfigurationError
from repro.hypergraph.csr import Csr
from repro.core.oag import Oag
from repro.store.keys import STORE_SCHEMA_VERSION

__all__ = [
    "resources_to_bytes",
    "resources_from_bytes",
    "run_result_to_json",
    "run_result_from_json",
    "SerializationError",
]


class SerializationError(ValueError):
    """Raised when an artifact payload cannot be decoded (schema mismatch,
    missing arrays, malformed JSON); the store treats it as a cache miss."""


def _oag_meta(oag: Oag) -> dict:
    return {
        "side": oag.side,
        "w_min": oag.w_min,
        "first_id": oag.first_id,
        "build_operations": oag.build_operations,
        "has_weights": oag.csr.weights is not None,
        "num_nodes": oag.num_nodes,
        "num_edges": oag.num_edges,
    }


def _pack_side(arrays: dict, prefix: str, oags: list[Oag]) -> None:
    """Concatenate one side's chunk CSRs into three flat zip members."""
    empty = np.zeros(0, dtype=np.int64)
    arrays[f"{prefix}_offsets"] = (
        np.concatenate([o.csr.offsets for o in oags]) if oags else empty
    )
    arrays[f"{prefix}_indices"] = (
        np.concatenate([o.csr.indices for o in oags]) if oags else empty
    )
    weight_parts = [
        o.csr.weights for o in oags if o.csr.weights is not None
    ]
    arrays[f"{prefix}_weights"] = (
        np.concatenate(weight_parts) if weight_parts else empty
    )


def resources_to_bytes(resources: GlaResources) -> bytes:
    """Serialize to an in-memory npz payload (compressed)."""
    arrays: dict[str, np.ndarray] = {}
    meta = {
        "schema": STORE_SCHEMA_VERSION,
        "kind": "gla_resources",
        "num_cores": resources.num_cores,
        "w_min": resources.w_min,
        "d_max": resources.d_max,
        "build_operations": resources.build_operations,
        "vertex_oags": [_oag_meta(o) for o in resources.vertex_oags],
        "hyperedge_oags": [_oag_meta(o) for o in resources.hyperedge_oags],
    }
    _pack_side(arrays, "v", resources.vertex_oags)
    _pack_side(arrays, "h", resources.hyperedge_oags)
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _unpack_side(npz, prefix: str, oag_metas: list[dict]) -> list[Oag]:
    try:
        offsets_all = npz[f"{prefix}_offsets"]
        indices_all = npz[f"{prefix}_indices"]
        weights_all = npz[f"{prefix}_weights"]
    except KeyError as exc:
        raise SerializationError(f"missing CSR arrays for side {prefix!r}") from exc
    oags = []
    off_pos = idx_pos = 0
    for meta in oag_metas:
        rows, edges = meta["num_nodes"], meta["num_edges"]
        offsets = offsets_all[off_pos : off_pos + rows + 1]
        indices = indices_all[idx_pos : idx_pos + edges]
        weights = (
            weights_all[idx_pos : idx_pos + edges] if meta["has_weights"] else None
        )
        if offsets.size != rows + 1 or indices.size != edges:
            raise SerializationError("CSR extents exceed packed arrays")
        off_pos += rows + 1
        idx_pos += edges
        oags.append(
            Oag(
                side=meta["side"],
                csr=Csr(offsets, indices, weights),
                w_min=meta["w_min"],
                first_id=meta["first_id"],
                build_operations=meta["build_operations"],
            )
        )
    if off_pos != offsets_all.size or idx_pos != indices_all.size:
        raise SerializationError("packed arrays longer than CSR extents")
    return oags


def resources_from_bytes(payload: bytes) -> GlaResources:
    """Decode :func:`resources_to_bytes` output; raises
    :class:`SerializationError` on any malformed or mismatched payload."""
    try:
        npz = np.load(io.BytesIO(payload), allow_pickle=False)
        meta = json.loads(bytes(npz["meta"]).decode("utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        raise SerializationError("unreadable resources payload") from exc
    if meta.get("schema") != STORE_SCHEMA_VERSION or meta.get("kind") != "gla_resources":
        raise SerializationError(
            f"schema mismatch: {meta.get('kind')}/{meta.get('schema')}"
        )
    try:
        vertex_oags = _unpack_side(npz, "v", meta["vertex_oags"])
        hyperedge_oags = _unpack_side(npz, "h", meta["hyperedge_oags"])
        return GlaResources(
            num_cores=meta["num_cores"],
            w_min=meta["w_min"],
            d_max=meta["d_max"],
            vertex_oags=vertex_oags,
            hyperedge_oags=hyperedge_oags,
            build_operations=meta["build_operations"],
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError("malformed resources metadata") from exc


def run_result_to_json(result: RunResult) -> dict:
    """A JSON-serializable dict for one memoized run: the schema header,
    then the record's own JSON (:class:`repro.records.Record`)."""
    return {
        "schema": STORE_SCHEMA_VERSION,
        "kind": "run_result",
        **result.to_json(),
    }


def run_result_from_json(payload: dict) -> RunResult:
    """Inverse of :func:`run_result_to_json`; raises
    :class:`SerializationError` on schema or shape mismatch."""
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != STORE_SCHEMA_VERSION
        or payload.get("kind") != "run_result"
    ):
        raise SerializationError("not a run_result payload of this schema")
    fields = {k: v for k, v in payload.items() if k not in ("schema", "kind")}
    try:
        return RunResult.from_json(fields)
    except ConfigurationError as exc:
        raise SerializationError(f"malformed run_result payload: {exc}") from exc
