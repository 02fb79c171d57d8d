"""Sharded parallel experiment execution: the one batch executor.

The figure suite drives hundreds of (engine, algorithm, dataset, config)
simulations, and ``repro serve`` drains batches of served jobs; each run is
seconds of single-threaded work.  :func:`execute_runs` is the only code
that runs such a batch of specs (:class:`~repro.harness.spec.RunSpec`) in
worker *processes*: it partitions the batch into shards, runs each shard in
a worker on a copy of the caller's :class:`~repro.harness.runner.Runner`,
and hands every :class:`RunResult` back by value in its :class:`RunReport`.
The artifact store, when the runner has one, is only a cache that workers
fill on the way; results never travel through it.

Sharding is deterministic and balanced: runs are sorted so that those
consuming the same ``GlaResources`` artifact (same dataset and core count,
for the OAG-consuming engines) sit side by side, and the sorted list is cut
into ``jobs`` contiguous shards whose run counts differ by at most one.  A
run takes seconds and a resource build a small fraction of that, so
balanced shards are worth an occasional second build: only the at most
``jobs - 1`` groups that straddle a cut are built twice, in two workers.
A one-shard plan (one job, or a one-run batch) runs inline, on the
caller's runner itself.

Robustness (see :func:`execute_runs`):

- per-run timeout, enforced *inside* the worker via ``SIGALRM`` so one
  pathological run fails cleanly without killing its shard;
- every exception is caught per run and reported, so one failing run
  never loses the rest of its shard;
- crashed or hung workers are retried with backoff by the shared
  :func:`~repro.store.pool.run_tasks` machinery, on a fresh pool, and a
  shard that keeps failing runs inline in the calling process.

Failed runs are reported, not re-run: each caller applies its own policy
(``Runner.run_many`` re-runs them inline and untimed; the service
scheduler requeues or fails the job).
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from typing import TYPE_CHECKING

from repro.core.oag import sparse_backend
from repro.engine.registry import ENGINE_REGISTRY
from repro.harness.spec import RunSpec
from repro.hypergraph.pipeline import PreprocessSpec

if TYPE_CHECKING:
    from repro.engine import RunResult
    from repro.harness.runner import Runner

__all__ = [
    "RESOURCE_ENGINES",
    "ExecutionReport",
    "RunReport",
    "RunSpec",
    "execute_runs",
    "plan_shards",
    "resource_group",
]

#: Engines that consume a ``GlaResources`` artifact (per-chunk OAGs); runs
#: using the same artifact are planned side by side.
RESOURCE_ENGINES: frozenset[str] = frozenset(
    name for name, spec in ENGINE_REGISTRY.items() if spec.needs_resources
)


@dataclasses.dataclass(frozen=True)
class RunReport:
    """How one run fared in the executor, with its result when it ran."""

    spec: RunSpec
    ok: bool
    seconds: float
    where: str  # "worker" or "inline"
    result: RunResult | None = None
    error: str | None = None  # "<Type>: <message>" when not ok


@dataclasses.dataclass(frozen=True)
class ExecutionReport:
    """What :func:`execute_runs` did: shard plan plus per-run reports.

    ``worker_writes`` counts the artifact-store writes that workers made
    through their copies of the caller's store; the caller's own store
    stats already count the writes of shards that ran inline.
    """

    reports: tuple[RunReport, ...]
    shards: tuple[tuple[RunSpec, ...], ...]
    seconds: float
    worker_writes: int = 0

    @property
    def parallel(self) -> bool:
        """Whether more than one shard went to worker processes."""
        return len(self.shards) > 1

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    def failures(self) -> list[RunReport]:
        return [report for report in self.reports if not report.ok]

    def retried(self) -> list[RunReport]:
        """Runs a worker failed or lost.

        A lost shard already ran inline here; a run that failed in its
        worker is left to the caller (``run_many`` re-runs it inline).
        """
        if not self.parallel:
            return []
        return [r for r in self.reports if not r.ok or r.where == "inline"]


# -- shard planning ----------------------------------------------------------


def resource_group(spec: RunSpec) -> tuple[str, int | None, PreprocessSpec]:
    """The preprocessing-sharing key of a run, derived from its spec.

    OAG-consuming engines need the ``GlaResources`` artifact for
    ``(dataset, num_cores, preprocessing)``; the rest only need the
    (pipelined) dataset itself, which each worker also materializes once.
    :func:`plan_shards` keeps runs with equal keys adjacent, so a key is
    built in a second worker only where a shard boundary cuts its group.
    The preprocessing record is part of the key because specs with
    different stage lists or OAG parameters share no artifacts at all.
    """
    preprocessing = spec.resolved_preprocessing()
    if spec.engine in RESOURCE_ENGINES:
        return (spec.dataset, spec.resolved_config().num_cores, preprocessing)
    return (spec.dataset, None, preprocessing)


def plan_shards(specs: list[RunSpec], jobs: int) -> list[list[RunSpec]]:
    """Deterministically cut the run matrix into at most ``jobs`` shards.

    Specs are deduplicated (first occurrence wins) and stably sorted by
    ``repr(resource_group(spec))``, so each group's runs, and one dataset's
    groups, sit side by side.  The sorted list is cut into
    ``min(jobs, len(runs))`` contiguous shards whose run counts differ by
    at most one.  Only a group that straddles a cut is built twice, and at
    most ``jobs - 1`` groups do; in exchange no worker idles while another
    runs a large group alone, and two or more jobs plan one shard only for
    a one-run batch.  Equal inputs always produce the identical plan.
    """
    unique = sorted(
        dict.fromkeys(specs), key=lambda spec: repr(resource_group(spec))
    )
    count = min(max(jobs, 1), len(unique))
    if count == 0:
        return []
    size, extra = divmod(len(unique), count)
    bounds = [index * size + min(index, extra) for index in range(count + 1)]
    return [unique[bounds[i] : bounds[i + 1]] for i in range(count)]


# -- worker body -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ShardPayload:
    """Everything a worker needs to run its shard.

    The runner pickles as its configuration (see ``Runner.__reduce__``), so
    a worker gets a fresh runner over the same store while the inline path
    runs on the caller's own.  The specs are fully normalized before
    sharding, so they carry their own ``pr_iterations``/``profile``/
    ``preprocessing``.
    """

    runner: Runner
    specs: tuple[RunSpec, ...]
    timeout: float | None
    parent_pid: int
    fault: str | None = None  # test hook, see _maybe_fault


class _RunTimeout(Exception):
    """Raised inside a worker when a run exceeds its SIGALRM budget."""


def _maybe_fault(payload: _ShardPayload, spec: RunSpec) -> None:
    """Crash-injection hook for the degradation tests.

    ``fault`` is ``"<kind>:<algorithm>"``; it fires at most once per store
    directory (a marker file records the strike) and only in a *worker*
    process — the parent's inline fallback must never be killed.
    ``crash`` hard-exits the worker (simulating a kill); ``hang`` sleeps
    past any sane per-run timeout so the SIGALRM path triggers.
    """
    store = payload.runner.store
    if payload.fault is None or store is None:
        return
    if os.getpid() == payload.parent_pid:
        return
    kind, _, match = payload.fault.partition(":")
    if match and spec.algorithm != match:
        return
    marker = os.path.join(store.root, f"fault-{kind}.marker")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # already struck once
    os.close(fd)
    if kind == "crash":
        os._exit(1)
    if kind == "hang":
        time.sleep(60.0)


def _run_one(spec: RunSpec, payload: _ShardPayload) -> RunResult:
    """Execute one spec on the payload's runner.

    In a worker process the run gets ``payload.timeout`` seconds of
    ``SIGALRM`` budget.  Inline in the calling process it runs untimed:
    that is the ground-truth tier, and the caller may be a thread (the
    service's executor), where ``signal.signal`` raises.  The fault hook
    fires *inside* the budget so an injected hang is cut short by the
    alarm exactly like a genuinely slow run would be.
    """
    timeout = payload.timeout
    if (
        timeout is None
        or os.getpid() == payload.parent_pid
        or not hasattr(signal, "SIGALRM")
    ):
        _maybe_fault(payload, spec)
        return payload.runner.run(spec)

    def _on_alarm(signum: int, frame: object) -> None:
        raise _RunTimeout(f"run exceeded {timeout}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _maybe_fault(payload, spec)
        return payload.runner.run(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_shard(payload: _ShardPayload) -> tuple[list[RunReport], int]:
    """Worker body: run one shard and report every run with its result.

    A run that times out or raises is reported failed as
    ``"<Type>: <message>"`` and the shard *continues*; only a worker death
    loses the whole shard (and the pool machinery retries it).  Also
    returns the store writes a worker made: its runner is a fresh copy, so
    its store stats count this shard alone.  Inline, the caller's runner
    wrote and counted them, so the shard reports 0.
    """
    where = "worker" if os.getpid() != payload.parent_pid else "inline"
    reports = []
    for spec in payload.specs:
        start = time.perf_counter()
        try:
            result = _run_one(spec, payload)
        except Exception as exc:  # noqa: BLE001 - reported; the caller decides
            reports.append(RunReport(
                spec=spec, ok=False, seconds=time.perf_counter() - start,
                where=where, error=f"{type(exc).__name__}: {exc}",
            ))
            continue
        reports.append(RunReport(
            spec=spec, ok=True, seconds=time.perf_counter() - start,
            where=where, result=result,
        ))
    store = payload.runner.store
    writes = store.stats.writes if where == "worker" and store is not None else 0
    return reports, writes


# -- the executor ------------------------------------------------------------


def execute_runs(
    specs: list[RunSpec],
    runner: Runner,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
    fault: str | None = None,
) -> ExecutionReport:
    """Execute the run matrix, parallel where possible, and report.

    The deduplicated matrix is cut by :func:`plan_shards` into at most
    ``jobs`` shards of equal run counts (``None``: one per CPU).  Several
    shards go to worker processes via :func:`~repro.store.pool.run_tasks`,
    each running on a copy of ``runner`` (so with a store, workers fill
    it); one shard runs inline on ``runner`` itself.  Shards whose worker
    crashed or hung are retried up to ``retries`` times with exponential
    ``backoff``, then run inline.  Every result comes back by value in its
    :class:`RunReport`.

    ``timeout`` bounds each run in a worker process only.  A one-shard
    plan, and a shard retried inline, run untimed: the inline tier is the
    ground truth, and its caller may be a thread (the service's executor),
    where ``SIGALRM`` cannot be armed.  Runs that timed out or raised are
    reported failed and *not* re-run: that policy belongs to the caller.
    ``fault`` is the test-only crash-injection hook documented on
    ``_maybe_fault``.

    Every spec must be normalized (see :meth:`RunSpec.normalized`): the
    executor runs exactly the specs it is given, so the caller's defaults —
    not a worker's environment — decide ``pr_iterations`` and the rest.
    """
    from repro.store.pool import run_tasks

    start = time.perf_counter()
    unique = list(dict.fromkeys(specs))
    for spec in unique:
        if None in (spec.config, spec.pr_iterations, spec.preprocessing):
            raise ValueError(f"execute_runs needs normalized specs: {spec}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    shards = plan_shards(unique, jobs)
    if len(shards) > 1:
        # OAG builds (resource engines, the overlap-renumber stage) need
        # scipy: forked workers inherit it instead of each importing it.
        sparse_backend()
    outcomes = run_tasks(
        _run_shard,
        [
            _ShardPayload(runner, tuple(shard), timeout, os.getpid(), fault)
            for shard in shards
        ],
        workers=len(shards),
        timeout=(
            None if timeout is None
            else timeout * max(map(len, shards), default=0)
        ),
        retries=retries,
        backoff=backoff,
    )
    by_spec = {
        report.spec: report for outcome in outcomes for report in outcome.value[0]
    }
    return ExecutionReport(
        reports=tuple(by_spec[spec] for spec in unique),
        shards=tuple(tuple(shard) for shard in shards),
        seconds=time.perf_counter() - start,
        worker_writes=sum(outcome.value[1] for outcome in outcomes),
    )
