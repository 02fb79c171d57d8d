"""Parallel cache prewarming: build GlaResources for many combos up front.

The paper's amortization argument (Fig 21/22) assumes OAG preprocessing is
paid once and reused across algorithms; this module makes that literal by
building ``GlaResources`` for a set of (dataset, num_cores) combinations in
parallel worker *processes* and writing each into one shared
:class:`~repro.store.store.ArtifactStore`.  Atomic store writes make
concurrent workers targeting the same directory safe; a worker that finds
its artifact already present reports a skip instead of rebuilding.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

from repro.core.chain import DEFAULT_D_MAX
from repro.core.oag import DEFAULT_W_MIN, sparse_backend
from repro.engine.resources import GlaResources
from repro.harness.datasets import load_dataset
from repro.hypergraph.pipeline import PreprocessSpec
from repro.store.keys import hypergraph_content_hash, resources_key
from repro.store.pool import run_tasks
from repro.store.store import ArtifactStore

__all__ = ["PrewarmJob", "PrewarmReport", "prewarm", "prewarm_jobs"]


@dataclasses.dataclass(frozen=True)
class PrewarmJob:
    """One (dataset, parameters) combination to materialize in the store."""

    dataset: str
    num_cores: int
    w_min: int = DEFAULT_W_MIN
    d_max: int = DEFAULT_D_MAX


@dataclasses.dataclass(frozen=True)
class PrewarmReport:
    """What one prewarm worker did."""

    job: PrewarmJob
    key: str
    built: bool
    seconds: float
    payload_bytes: int


def prewarm_jobs(
    datasets: list[str],
    core_counts: list[int],
    w_min: int = DEFAULT_W_MIN,
    d_max: int = DEFAULT_D_MAX,
) -> list[PrewarmJob]:
    """The cross product of datasets × core counts as prewarm jobs."""
    return [
        PrewarmJob(dataset=d, num_cores=c, w_min=w_min, d_max=d_max)
        for d in datasets
        for c in core_counts
    ]


def _run_job(payload: tuple[str, PrewarmJob]) -> PrewarmReport:
    """Worker body: build (or find) one artifact in the store.

    Top-level so the process pool can pickle it; each worker opens its own
    store handle on the shared directory.
    """
    store_dir, job = payload
    store = ArtifactStore(store_dir)
    hypergraph = load_dataset(job.dataset)
    preprocessing = PreprocessSpec(w_min=job.w_min, d_max=job.d_max)
    key = resources_key(
        hypergraph_content_hash(hypergraph), job.num_cores, preprocessing
    )
    start = time.perf_counter()
    GlaResources.build_or_load(
        hypergraph, job.num_cores, store=store, preprocessing=preprocessing
    )
    built = store.stats.writes > 0
    path = store._payload_path("resources", key)
    try:
        payload_bytes = path.stat().st_size
    except OSError:
        payload_bytes = 0
    return PrewarmReport(
        job=job,
        key=key,
        built=built,
        seconds=time.perf_counter() - start,
        payload_bytes=payload_bytes,
    )


def prewarm(
    store_dir: str | os.PathLike,
    jobs: list[PrewarmJob],
    workers: int | None = None,
) -> list[PrewarmReport]:
    """Materialize every job's artifact in ``store_dir``; reports in job order.

    ``workers=None`` picks ``min(len(jobs), cpu_count)``; ``workers<=1``
    runs inline (no process pool), which is also the fallback for
    single-job calls.  Pool failures are absorbed by the shared
    :func:`~repro.store.pool.run_tasks` machinery: a crashed worker's jobs
    are retried and, as a last resort, built inline in this process.
    """
    store_dir = str(Path(store_dir))
    if not jobs:
        return []
    payloads = [(store_dir, job) for job in jobs]
    # Forked workers inherit scipy instead of each importing it.
    sparse_backend()
    outcomes = run_tasks(_run_job, payloads, workers=workers)
    return [outcome.value for outcome in outcomes]
