"""Parallel cache prewarming: build GlaResources for many combos up front.

The paper's amortization argument (Fig 21/22) assumes OAG preprocessing is
paid once and reused across algorithms; this module makes that literal by
building ``GlaResources`` for a set of (dataset, num_cores) combinations in
parallel worker *processes* and writing each, with the dataset it is built
from, into one shared :class:`~repro.store.store.ArtifactStore`.  The jobs
are cut into contiguous groups, one worker process each (started by the
executor's helper, :mod:`repro.harness.parallel`); a group whose worker
was lost is built inline.  Atomic store writes make concurrent workers
targeting the same directory safe; a worker that finds its artifact
already present reports a skip instead of rebuilding.
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
from repro.harness.parallel import _cut, _in_workers
from repro.hypergraph.pipeline import PreprocessSpec
from repro.store.keys import hypergraph_content_hash, resources_key
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


def _build(store: ArtifactStore, job: PrewarmJob) -> PrewarmReport:
    """Build (or find) one job's artifact in ``store``."""
    hypergraph = load_dataset(job.dataset, store)
    preprocessing = PreprocessSpec(w_min=job.w_min, d_max=job.d_max)
    key = resources_key(
        hypergraph_content_hash(hypergraph), job.num_cores, preprocessing
    )
    start = time.perf_counter()
    writes = store.stats.writes
    GlaResources.build_or_load(
        hypergraph, job.num_cores, store=store, preprocessing=preprocessing
    )
    built = store.stats.writes > writes
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


def _build_group(payload: tuple[str, list[PrewarmJob]]) -> list[PrewarmReport]:
    """Group body: build each job on one store handle over the shared
    directory."""
    store_dir, jobs = payload
    store = ArtifactStore(store_dir)
    return [_build(store, job) for job in jobs]


def prewarm(
    store_dir: str | os.PathLike,
    jobs: list[PrewarmJob],
    workers: int | None = None,
) -> list[PrewarmReport]:
    """Materialize every job's artifact in ``store_dir``; one report per
    distinct job, in job order (a repeated job is built once).

    The jobs are cut into at most ``workers`` contiguous groups of equal
    counts (``None``: one per CPU), each built in a worker process of its
    own; one group is built inline, with no worker.  A group whose worker
    died or raised is built inline, in this process, where an error
    propagates.
    """
    store_dir = str(Path(store_dir))
    jobs = list(dict.fromkeys(jobs))
    if workers is None:
        workers = os.cpu_count() or 1
    groups = _cut(jobs, max(1, min(workers, len(jobs))))
    if len(groups) == 1:
        return _build_group((store_dir, jobs))
    payloads = [(store_dir, group) for group in groups]
    # Forked workers inherit scipy instead of each importing it.
    sparse_backend()
    return [
        report
        for payload, (reports, error) in zip(
            payloads, _in_workers(_build_group, payloads, None)
        )
        for report in (_build_group(payload) if error is not None else reports)
    ]
