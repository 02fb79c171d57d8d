"""Content-addressed cache keys for persisted preprocessing artifacts.

Every artifact in the store is addressed by a stable hash of *what produced
it*, never by dataset name: the hypergraph payload (both bipartite CSR
directions, byte-exact), the preprocessing record (``w_min``, ``d_max``,
and the ordered stage list of the
:class:`~repro.hypergraph.pipeline.PreprocessSpec`), and a schema version.
Renaming a dataset keeps its cache entries valid; regenerating it with
different structure invalidates them automatically.

A stored dataset is the one exception, since its content is what a lookup
wants to learn: :func:`dataset_key` hashes its recipe (name and scale) and
the source of every module that generates it, so an edit to the generator
turns its entries into misses, never into stale hits.

This module is the **only** place key components are concatenated:
``resources_key`` and ``run_result_key`` both derive from a spec here, so
the CLI, runner, parallel executor, and service can never disagree about
what key one simulation hashes to.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.hypergraph.pipeline import PreprocessSpec

if TYPE_CHECKING:  # imported lazily to avoid a store <-> harness cycle
    from repro.harness.spec import RunSpec

__all__ = [
    "DATASET_MODULES",
    "STORE_SCHEMA_VERSION",
    "dataset_key",
    "hypergraph_content_hash",
    "resources_key",
    "run_result_key",
]

#: Bump when the on-disk artifact layout changes; old entries are then
#: invisible (they live under a different schema directory) and simply
#: rebuilt, never misread.  ``repro cache gc`` and ``repro cache clear``
#: delete the old schema's directory.
#:
#: v2: ``RunResult`` payloads carry an optional ``telemetry`` record and
#: run keys distinguish profiled from plain runs.
#:
#: v3: ``RunResult`` payloads carry DRAM write traffic
#: (``dram_writebacks`` and the per-array breakdown) now that the
#: hierarchy drains dirty evictions to memory instead of dropping them.
#:
#: v4: both keys derive from a ``RunSpec``/``PreprocessSpec`` and hash the
#: full preprocessing record (``w_min``/``d_max``/stage list) — run keys
#: previously ignored ``w_min``/``d_max`` entirely, so runs under
#: non-default OAG parameters could alias default entries.
#:
#: v5: runs build PageRank/Adsorption from the spec's ``pr_iterations``
#: (v4 entries for a non-default count hold the runner's default count),
#: and profiled runs' telemetry counts engine-channel accesses.
#:
#: v6: ``RunResult`` payloads carry the run's ``energy`` report and, under
#: ``track_coherence``, its MESI ``coherence`` counters; the untyped
#: ``extra`` record is gone.
#:
#: v7: every payload, run results included, is a record's uncompressed raw
#: form (``<key>.rec``), read back as views; stage records hash without
#: the ``"params": {}`` they were once written with.
STORE_SCHEMA_VERSION = 7


#: Every module whose source can change a generated dataset: what
#: importing :mod:`repro.harness.datasets` loads, less the package export
#: tables (``repro``, ``repro.hypergraph``, ``repro.harness``), their lazy
#: loader (``repro._exports``) and the exception declarations
#: (``repro.errors``).  ``repro.records`` stays: ``Csr`` checks and
#: coerces every generated array through it.  ``tests/store/test_keys.py``
#: pins both lists to that import.
DATASET_MODULES: tuple[str, ...] = (
    "repro.records",
    "repro.hypergraph.csr",
    "repro.hypergraph.hypergraph",
    "repro.hypergraph.generators",
    "repro.harness.datasets",
)


def _hash_arrays(h: "hashlib._Hash", *arrays: np.ndarray) -> None:
    """Feed arrays into ``h`` with dtype/shape framing so that e.g. an
    empty-offsets/indices swap cannot collide."""
    for a in arrays:
        a = np.ascontiguousarray(a)
        frame = f"{a.dtype.str}:{a.shape}".encode()
        h.update(len(frame).to_bytes(4, "little"))
        h.update(frame)
        h.update(a.tobytes())


def hypergraph_content_hash(hypergraph) -> str:
    """The sha256 hex digest of a hypergraph's structural payload.

    Covers both CSR directions plus the ``directed`` flag; excludes the
    display ``name``.  Two hypergraphs share a hash iff their bipartite
    structures are byte-identical.
    """
    h = hashlib.sha256(b"repro/hypergraph/v1")
    h.update(b"directed" if hypergraph.directed else b"undirected")
    _hash_arrays(
        h,
        hypergraph.hyperedges.offsets,
        hypergraph.hyperedges.indices,
        hypergraph.vertices.offsets,
        hypergraph.vertices.indices,
    )
    return h.hexdigest()


def dataset_key(name: str, scale: float) -> str:
    """Store key for the harness dataset ``name`` generated at ``scale``,
    by the source of :data:`DATASET_MODULES` as it stands."""
    h = hashlib.sha256(b"repro/dataset/")
    h.update(f"v{STORE_SCHEMA_VERSION}:{name}:scale={scale!r}:".encode())
    for module in DATASET_MODULES:
        source = Path(importlib.import_module(module).__file__).read_bytes()
        h.update(f"{module}:{len(source)}:".encode())
        h.update(source)
    return h.hexdigest()[:32]


def _preprocess_token(preprocessing: PreprocessSpec | None) -> str:
    """Canonical string form of a preprocessing record for key hashing:
    the sorted-key JSON dump of the spec's JSON form, which preserves
    stage order."""
    if preprocessing is None:
        preprocessing = PreprocessSpec()
    return json.dumps(preprocessing.to_json(), sort_keys=True)


def resources_key(
    content_hash: str,
    num_cores: int,
    preprocessing: PreprocessSpec | None = None,
) -> str:
    """Store key for the :class:`~repro.engine.resources.GlaResources` built
    from the hypergraph with ``content_hash`` under the given preprocessing
    record (``None`` means the default :class:`PreprocessSpec`)."""
    h = hashlib.sha256(b"repro/resources/")
    h.update(
        f"v{STORE_SCHEMA_VERSION}:{content_hash}:"
        f"cores={num_cores}:".encode()
    )
    h.update(_preprocess_token(preprocessing).encode())
    return h.hexdigest()[:32]


def run_result_key(spec: "RunSpec", dataset_hash: str) -> str:
    """Store key for one memoized simulation run, derived from its
    :class:`~repro.harness.spec.RunSpec`.

    ``dataset_hash`` is the content hash of the dataset *as loaded* —
    before any preprocessing stage runs — so callers (notably the service's
    coalescing layer) can key a run without executing its pipeline; the
    stage list is hashed in via the preprocessing token instead.  The
    spec's full resolved config is hashed (via a sorted-key JSON dump) so
    modified copies get distinct entries, mirroring the in-process memo.
    ``profile`` is part of the key (a profiled run carries telemetry a
    plain entry lacks) and so is ``check``: a checked run re-executes the
    simulation under the invariant checker and must never be answered by —
    or coalesced onto — an unchecked entry.
    """
    if spec.pr_iterations is None:
        raise ValueError(
            "run_result_key needs a spec with concrete pr_iterations; "
            "call RunSpec.normalized() first"
        )
    config_json = json.dumps(spec.resolved_config().to_json(), sort_keys=True)
    profile = spec.profile or spec.check
    h = hashlib.sha256(b"repro/run/")
    h.update(
        f"v{STORE_SCHEMA_VERSION}:{spec.engine}:{spec.algorithm}:"
        f"{dataset_hash}:pr={spec.pr_iterations}:"
        f"profile={int(profile)}:check={int(spec.check)}:".encode()
    )
    h.update(_preprocess_token(spec.resolved_preprocessing()).encode())
    h.update(b":")
    h.update(config_json.encode())
    return h.hexdigest()[:32]
