"""Artifact (de)serialization: every stored kind in one raw record form,
and ``RunResult`` ↔ JSON for the service's wire.

A stored payload is its artifact's raw form
(:meth:`repro.records.Record.raw_parts`; a dataset's is
:meth:`Hypergraph.raw_parts
<repro.hypergraph.hypergraph.Hypergraph.raw_parts>`, its name and both CSR
sides) under a ``schema``/``kind`` header.  :func:`encode` yields it part
by part, for the store to stream into its file; :func:`decode` returns
every array as a read-only view of the payload, bit-identical to the
artifact written (the parity the warm-speedup benchmark asserts), and a
dataset validated as any ``Hypergraph`` is.  Results are not JSON on disk:
:func:`run_result_to_json` is the form ``repro serve`` answers in.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.engine.resources import GlaResources
from repro.engine.result import RunResult
from repro.errors import ConfigurationError, HypergraphFormatError
from repro.hypergraph.hypergraph import Hypergraph
from repro.store.keys import STORE_SCHEMA_VERSION

__all__ = [
    "KINDS", "Parts", "SerializationError", "decode", "encode",
    "run_result_from_json", "run_result_to_json",
]

#: A payload as a writer yields it: bytes and contiguous arrays, in order.
Parts = Iterable[bytes | np.ndarray]

#: Each store kind's artifact type and the header its payloads carry.
KINDS: dict[str, tuple[Any, dict[str, Any]]] = {
    kind: (cls, {"schema": STORE_SCHEMA_VERSION, "kind": name})
    for kind, cls, name in (
        ("datasets", Hypergraph, "dataset"),
        ("resources", GlaResources, "gla_resources"),
        ("results", RunResult, "run_result"),
    )
}
_RESULT_HEADER = KINDS["results"][1]


class SerializationError(ValueError):
    """Raised when an artifact payload cannot be decoded (schema mismatch,
    missing arrays, malformed meta); the store treats it as a cache miss."""


def encode(kind: str, artifact: Any) -> Parts:
    """The payload of ``artifact`` as store ``kind`` holds it, part by
    part."""
    return artifact.raw_parts(KINDS[kind][1])


def decode(kind: str, payload: bytes) -> Any:
    """The artifact an :func:`encode` payload of ``kind`` holds; raises
    :class:`SerializationError` on any malformed or mismatched payload,
    including a dataset that fails :class:`Hypergraph`'s own validation."""
    cls, header = KINDS[kind]
    try:
        return cls.from_raw(payload, header)
    except (ConfigurationError, HypergraphFormatError) as exc:
        raise SerializationError(f"malformed {kind} payload: {exc}") from exc


def run_result_to_json(result: RunResult) -> dict:
    """One run's wire form: the schema header, then the record's own JSON
    (:class:`repro.records.Record`)."""
    return {**_RESULT_HEADER, **result.to_json()}


def run_result_from_json(payload: dict) -> RunResult:
    """Inverse of :func:`run_result_to_json`; raises
    :class:`SerializationError` on schema or shape mismatch."""
    if not isinstance(payload, dict) or any(
        payload.get(name) != value for name, value in _RESULT_HEADER.items()
    ):
        raise SerializationError("not a run_result payload of this schema")
    fields = {k: v for k, v in payload.items() if k not in _RESULT_HEADER}
    try:
        return RunResult.from_json(fields)
    except ConfigurationError as exc:
        raise SerializationError(f"malformed run_result payload: {exc}") from exc
