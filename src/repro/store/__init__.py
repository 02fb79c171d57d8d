"""Persistent content-addressed artifact store (preprocessing-as-a-service).

The paper amortizes OAG/chain preprocessing across algorithms; this package
amortizes it across *processes*: harness datasets (both bipartite CSR
sides), ``GlaResources`` (per-chunk OAG CSRs) and memoized ``RunResult``s
are persisted under content-derived keys, verified by checksum on load,
and rebuilt transparently on any corruption or schema drift.  See
:mod:`repro.store.store` for the disk format, :mod:`repro.store.keys` for
key derivation, and :mod:`repro.store.prewarm` for the parallel prewarming
pipeline, which builds its job groups in worker processes started by the
executor's helper (:mod:`repro.harness.parallel`) and builds a group
whose worker was lost inline.

Opt in by passing ``cache_dir=`` to :class:`~repro.harness.runner.Runner`
or by setting ``$REPRO_CACHE_DIR``; manage the store with
``python -m repro prewarm`` and ``python -m repro cache {stats,ls,gc,clear}``.
The names below resolve on first use, so importing the package loads
neither ``multiprocessing`` nor the prewarm pipeline.
"""

from repro._exports import exports

__getattr__, __all__ = exports(__name__, {
    "STORE_SCHEMA_VERSION": "keys",
    "ArtifactStore": "store",
    "PrewarmJob": "prewarm",
    "PrewarmReport": "prewarm",
    "SerializationError": "serialize",
    "StoreEntry": "store",
    "StoreStats": "store",
    "dataset_key": "keys",
    "hypergraph_content_hash": "keys",
    "prewarm": "prewarm",
    "prewarm_jobs": "prewarm",
    "resolve_cache_dir": "store",
    "resources_key": "keys",
    "run_result_key": "keys",
})
