"""Artifact (de)serialization: ``GlaResources`` and datasets ↔ npz,
``RunResult`` ↔ JSON.

Every payload is a record's own form (:class:`repro.records.Record`)
under a ``schema``/``kind`` header.  ``GlaResources`` and a dataset
(:meth:`Hypergraph.to_npz <repro.hypergraph.hypergraph.Hypergraph.to_npz>`:
its name and both CSR sides) take the npz form: their JSON in a ``meta``
member, the CSR arrays stored verbatim in one flat member per dtype, so a
load reproduces the in-memory artifact bit-identically (the parity the
warm-speedup benchmark asserts).  A loaded dataset is validated as any
:class:`~repro.hypergraph.hypergraph.Hypergraph` is.

``RunResult`` payloads are JSON: the value arrays at this repo's scale are
thousands of elements, so ``tolist`` round-tripping is cheap and keeps the
entries greppable on disk.  The optional ``telemetry``, ``energy`` and
``coherence`` records are written as ``null`` when the run lacks them.
"""

from __future__ import annotations

from repro.engine.resources import GlaResources
from repro.engine.result import RunResult
from repro.errors import ConfigurationError, HypergraphFormatError
from repro.hypergraph.hypergraph import Hypergraph
from repro.store.keys import STORE_SCHEMA_VERSION

__all__ = [
    "dataset_to_bytes",
    "dataset_from_bytes",
    "resources_to_bytes",
    "resources_from_bytes",
    "run_result_to_json",
    "run_result_from_json",
    "SerializationError",
]

#: The kind names the npz layout: an entry in the per-side layout that
#: ``gla_resources`` named fails this header, so it reads as a miss and is
#: rebuilt, while the schema (which every store key hashes) stays.
_RESOURCES_HEADER = {"schema": STORE_SCHEMA_VERSION, "kind": "gla_resources_pooled"}
_DATASET_HEADER = {"schema": STORE_SCHEMA_VERSION, "kind": "dataset"}


class SerializationError(ValueError):
    """Raised when an artifact payload cannot be decoded (schema mismatch,
    missing arrays, malformed JSON); the store treats it as a cache miss."""


def resources_to_bytes(resources: GlaResources) -> bytes:
    """Serialize to an in-memory npz payload (compressed)."""
    return resources.to_npz(_RESOURCES_HEADER)


def resources_from_bytes(payload: bytes) -> GlaResources:
    """Decode :func:`resources_to_bytes` output; raises
    :class:`SerializationError` on any malformed or mismatched payload."""
    try:
        return GlaResources.from_npz(payload, _RESOURCES_HEADER)
    except (ConfigurationError, HypergraphFormatError) as exc:
        raise SerializationError(f"malformed resources payload: {exc}") from exc


def dataset_to_bytes(hypergraph: Hypergraph) -> bytes:
    """Serialize a dataset to an in-memory npz payload (compressed)."""
    return hypergraph.to_npz(_DATASET_HEADER)


def dataset_from_bytes(payload: bytes) -> Hypergraph:
    """Decode :func:`dataset_to_bytes` output; raises
    :class:`SerializationError` on any malformed or mismatched payload,
    including one that fails :class:`Hypergraph`'s own validation."""
    try:
        return Hypergraph.from_npz(payload, _DATASET_HEADER)
    except (ConfigurationError, HypergraphFormatError) as exc:
        raise SerializationError(f"malformed dataset payload: {exc}") from exc


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
