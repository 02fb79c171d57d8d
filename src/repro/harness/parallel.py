"""Sharded parallel experiment execution.

The figure suite drives hundreds of (engine, algorithm, dataset, config)
simulations through one :class:`~repro.harness.runner.Runner`; each is
seconds of single-threaded work, and the suite ran them strictly serially.
This module partitions that run matrix across worker *processes*, using the
persistent :class:`~repro.store.ArtifactStore` as the cross-process result
bus: workers execute their shard through an ordinary store-backed
``Runner`` (so every ``RunResult`` and ``GlaResources`` artifact lands in
the shared store), and the parent assembles every result from warm cache
hits — so the figures reduced from them are byte-identical to serial
execution.

Sharding is deterministic and resource-aware: runs that consume the same
``GlaResources`` artifact (same dataset and core count, for the
OAG-consuming engines) are grouped onto one shard, so the expensive
preprocessing is built exactly once instead of racing in several workers.
Groups are packed onto shards longest-first onto the least-loaded shard —
a deterministic LPT schedule.

Robustness (see :func:`execute_runs`):

- per-run timeout, enforced *inside* the worker via ``SIGALRM`` so one
  pathological run fails cleanly without killing its shard;
- crashed or hung workers are retried with backoff by the shared
  :func:`~repro.store.pool.run_tasks` machinery, on a fresh pool;
- graceful degradation: with no cache directory, a single job, or after
  retries are exhausted, runs execute inline in the parent process — the
  suite always completes, worst case at serial speed.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from typing import TYPE_CHECKING

from repro.harness.spec import RunSpec
from repro.hypergraph.pipeline import PreprocessSpec

if TYPE_CHECKING:
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
#: using the same artifact are scheduled onto the same shard.
RESOURCE_ENGINES: frozenset[str] = frozenset(
    {"GLA", "ChGraph", "ChGraph-HCGonly", "ChGraph-CPonly", "HATS-V"}
)


@dataclasses.dataclass(frozen=True)
class RunReport:
    """How one run fared in the executor."""

    spec: RunSpec
    ok: bool
    seconds: float
    where: str  # "worker" or "inline"
    error: str | None = None


@dataclasses.dataclass(frozen=True)
class ExecutionReport:
    """What :func:`execute_runs` did: shard plan plus per-run reports."""

    reports: tuple[RunReport, ...]
    shards: tuple[tuple[RunSpec, ...], ...]
    jobs: int
    parallel: bool
    seconds: float

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    def failures(self) -> list[RunReport]:
        return [report for report in self.reports if not report.ok]

    def retried(self) -> list[RunReport]:
        """Runs that needed the inline fallback after a worker failure."""
        return [r for r in self.reports if r.where == "inline" and self.parallel]


# -- shard planning ----------------------------------------------------------


def resource_group(spec: RunSpec) -> tuple[str, int | None, PreprocessSpec]:
    """The preprocessing-sharing key of a run, derived from its spec.

    OAG-consuming engines need the ``GlaResources`` artifact for
    ``(dataset, num_cores, preprocessing)``; the rest only need the
    (pipelined) dataset itself, which each worker also materializes once.
    Runs with equal keys land on one shard so neither is built twice.  The
    preprocessing record is part of the key because specs with different
    stage lists or OAG parameters share no artifacts at all.
    """
    preprocessing = spec.resolved_preprocessing()
    if spec.engine in RESOURCE_ENGINES:
        return (spec.dataset, spec.resolved_config().num_cores, preprocessing)
    return (spec.dataset, None, preprocessing)


def plan_shards(specs: list[RunSpec], jobs: int) -> list[list[RunSpec]]:
    """Deterministically pack the run matrix into at most ``jobs`` shards.

    Specs are deduplicated (first occurrence wins), grouped by
    :func:`resource_group`, and the groups LPT-packed: largest group first
    onto the currently least-loaded shard, ties broken by shard index.
    Equal inputs always produce the identical plan.
    """
    unique = list(dict.fromkeys(specs))
    if jobs <= 1:
        return [unique] if unique else []
    groups: dict[tuple[str, int | None, PreprocessSpec], list[RunSpec]] = {}
    for spec in unique:
        groups.setdefault(resource_group(spec), []).append(spec)
    ordered = sorted(
        groups.items(), key=lambda item: (-len(item[1]), repr(item[0]))
    )
    shards: list[list[RunSpec]] = [[] for _ in range(min(jobs, len(groups)))]
    loads = [0] * len(shards)
    for _, members in ordered:
        target = loads.index(min(loads))
        shards[target].extend(members)
        loads[target] += len(members)
    return [shard for shard in shards if shard]


# -- worker body -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ShardPayload:
    """Everything a worker needs to rebuild its Runner and run its shard.

    The specs are fully normalized before sharding, so they carry their own
    ``pr_iterations``/``profile``/``preprocessing``; only the store
    location travels separately.
    """

    cache_dir: str | None
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
    if payload.fault is None or payload.cache_dir is None:
        return
    if os.getpid() == payload.parent_pid:
        return
    kind, _, match = payload.fault.partition(":")
    if match and spec.algorithm != match:
        return
    marker = os.path.join(payload.cache_dir, f"fault-{kind}.marker")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # already struck once
    os.close(fd)
    if kind == "crash":
        os._exit(1)
    if kind == "hang":
        time.sleep(60.0)


def _run_one(
    runner: "Runner",
    spec: RunSpec,
    timeout: float | None,
    payload: _ShardPayload,
) -> None:
    """Execute one spec on ``runner`` under an optional SIGALRM budget.

    The fault hook fires *inside* the budget so an injected hang is cut
    short by the alarm exactly like a genuinely slow run would be.
    """
    use_alarm = timeout is not None and hasattr(signal, "SIGALRM")
    if not use_alarm:
        _maybe_fault(payload, spec)
        runner.run(spec)
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise _RunTimeout(f"run exceeded {timeout}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _maybe_fault(payload, spec)
        runner.run(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_shard(payload: _ShardPayload) -> list[RunReport]:
    """Worker body: run one shard through a store-backed Runner.

    Results travel via the artifact store, not the return value — the
    reports carry only status.  A run that times out or raises is reported
    failed and the shard *continues*; only a worker death loses the whole
    shard (and the pool machinery retries it).
    """
    from repro.harness.runner import Runner

    runner = Runner(cache_dir=payload.cache_dir)
    where = "worker" if os.getpid() != payload.parent_pid else "inline"
    reports = []
    for spec in payload.specs:
        start = time.perf_counter()
        try:
            _run_one(
                runner, spec,
                payload.timeout if where == "worker" else None,
                payload,
            )
        except _RunTimeout as exc:
            reports.append(RunReport(
                spec=spec, ok=False, seconds=time.perf_counter() - start,
                where=where, error=str(exc),
            ))
            continue
        reports.append(RunReport(
            spec=spec, ok=True, seconds=time.perf_counter() - start, where=where,
        ))
    return reports


# -- the executor ------------------------------------------------------------


def execute_runs(
    specs: list[RunSpec],
    cache_dir: str | os.PathLike | None,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
    fault: str | None = None,
) -> ExecutionReport:
    """Execute the run matrix, parallel where possible, and report.

    With a ``cache_dir`` and ``jobs > 1``, the deduplicated matrix is
    packed by :func:`plan_shards` and dispatched to worker processes via
    :func:`~repro.store.pool.run_tasks`; each worker writes its artifacts
    into the shared store.  Shards whose worker crashed or hung are retried
    up to ``retries`` times with exponential ``backoff``; individual runs
    that timed out in a worker (or shards that kept failing) are re-run
    **inline** in this process with no timeout, so the suite always
    completes with correct results.

    With no ``cache_dir`` (no cross-process result bus), ``jobs in
    (None-on-1-cpu, 0, 1)``, or fewer than two runs, execution degrades to
    a single inline shard.  ``fault`` is the test-only crash-injection
    hook documented on ``_maybe_fault``.

    Every spec must be normalized (see :meth:`RunSpec.normalized`): the
    executor runs exactly the specs it is given, so the caller's defaults —
    not a worker's environment — decide ``pr_iterations`` and the rest.
    """
    start = time.perf_counter()
    unique = list(dict.fromkeys(specs))
    for spec in unique:
        if None in (spec.config, spec.pr_iterations, spec.preprocessing):
            raise ValueError(f"execute_runs needs normalized specs: {spec}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, jobs)
    parallel = cache_dir is not None and jobs > 1 and len(unique) > 1
    cache_dir = str(cache_dir) if cache_dir is not None else None

    def _payload(
        shard: list[RunSpec], per_run_timeout: float | None
    ) -> _ShardPayload:
        return _ShardPayload(
            cache_dir=cache_dir,
            specs=tuple(shard),
            timeout=per_run_timeout,
            parent_pid=os.getpid(),
            fault=fault,
        )

    if not parallel:
        shards = plan_shards(unique, 1)
        reports: list[RunReport] = []
        for shard in shards:
            reports.extend(_run_shard(_payload(shard, None)))
        return ExecutionReport(
            reports=tuple(reports),
            shards=tuple(tuple(shard) for shard in shards),
            jobs=1,
            parallel=False,
            seconds=time.perf_counter() - start,
        )

    from repro.store.pool import run_tasks

    shards = plan_shards(unique, jobs)
    outcomes = run_tasks(
        _run_shard,
        [_payload(shard, timeout) for shard in shards],
        workers=len(shards),
        timeout=None if timeout is None else timeout * max(map(len, shards)),
        retries=retries,
        backoff=backoff,
        inline_fallback=True,
    )
    by_spec: dict[RunSpec, RunReport] = {}
    for outcome in outcomes:
        for report in outcome.value:
            by_spec[report.spec] = report
    # Runs that timed out inside their worker get one inline, untimed
    # retry here — the graceful-degradation guarantee.
    failed = [spec for spec in unique if not by_spec[spec].ok]
    if failed:
        for report in _run_shard(_payload(failed, None)):
            by_spec[report.spec] = report
    return ExecutionReport(
        reports=tuple(by_spec[spec] for spec in unique),
        shards=tuple(tuple(shard) for shard in shards),
        jobs=len(shards),
        parallel=True,
        seconds=time.perf_counter() - start,
    )
