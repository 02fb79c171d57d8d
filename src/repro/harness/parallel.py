"""Sharded parallel experiment execution: the one batch executor.

The figure suite drives hundreds of (engine, algorithm, dataset, config)
simulations, and ``repro serve`` drains batches of served jobs; each run is
seconds of single-threaded work.  :func:`execute_runs` is the only code
that runs such a batch of specs (:class:`~repro.harness.spec.RunSpec`) in
worker *processes*: it partitions the batch into shards, computes each
shard in a worker on a copy of the caller's
:class:`~repro.harness.runner.Runner` (``Runner.compute``: the caller has
already looked every run up, so a shard never does), and hands every
:class:`RunResult` back by value in its :class:`RunReport`.  The artifact
store, when the runner has one, is only a cache that workers fill on the
way; results never travel through it.

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
- each shard has a worker process of its own, so a worker that dies, or
  is still running at the deadline and is killed, loses only its own
  shard.

Failed runs are reported, not re-run: each caller applies its own policy.
``Runner.run_many`` computes them inline and untimed, the service
scheduler requeues the job or fails it, and ``repro prewarm``, which
starts its workers through the same helper, builds a lost group inline.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time
from collections.abc import Callable, Sequence
from multiprocessing import connection
from typing import TYPE_CHECKING, Any, TypeVar

from repro.core.oag import sparse_backend
from repro.engine.registry import ENGINE_REGISTRY, import_engines
from repro.harness.spec import RunSpec
from repro.hypergraph.pipeline import PreprocessSpec

if TYPE_CHECKING:
    from repro.engine.result import RunResult
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

_T = TypeVar("_T")

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
    return _cut(unique, min(max(jobs, 1), len(unique)))


def _cut(items: list[_T], count: int) -> list[list[_T]]:
    """``items`` cut into ``count`` contiguous parts whose lengths differ
    by at most one."""
    size, extra = divmod(len(items), max(count, 1))
    bounds = [index * size + min(index, extra) for index in range(count + 1)]
    return [items[bounds[i] : bounds[i + 1]] for i in range(count)]


# -- worker processes --------------------------------------------------------


def _serve(pipe: connection.Connection, work: Callable[[Any], Any]) -> None:
    """Worker body: answer the one payload ``pipe`` brings with
    ``(value, None)``, or ``(None, "<Type>: <message>")`` if ``work``
    raised."""
    payload = pipe.recv()
    try:
        outcome = (work(payload), None)
    except Exception as exc:  # noqa: BLE001 - reported; the caller decides
        outcome = (None, f"{type(exc).__name__}: {exc}")
    pipe.send(outcome)


def _in_workers(
    work: Callable[[Any], Any], payloads: Sequence[Any], deadline: float | None
) -> list[tuple[Any, str | None]]:
    """``work(payload)`` for each payload, each in a worker process of its
    own: ``(value, None)``, or ``(None, error)``, in payload order.

    Each payload is pickled to its worker through a pipe, so a runner in it
    arrives as a fresh copy (``Runner.__reduce__``).  The error is
    ``"<Type>: <message>"`` when ``work`` raised, ``"worker process died"``
    when the worker ended without an answer, and ``"timed out after <N>s"``
    when it had not answered ``deadline`` seconds after the start (``None``:
    no deadline).  No worker outlives the call: each is killed if still
    running, then joined.
    """
    start = time.monotonic()
    workers: list[tuple[multiprocessing.Process, connection.Connection]] = []
    outcomes: dict[int, tuple[Any, str | None]] = {}
    try:
        for payload in payloads:
            ours, theirs = multiprocessing.Pipe()
            process = multiprocessing.Process(target=_serve, args=(theirs, work))
            process.start()
            theirs.close()  # so the worker's end closes when it dies
            workers.append((process, ours))
            try:
                ours.send(payload)
            except OSError:
                pass  # the worker is gone; its pipe reads as died below
        pending = {ours: index for index, (_, ours) in enumerate(workers)}
        while pending:
            left = None if deadline is None else start + deadline - time.monotonic()
            if left is not None and left <= 0:
                break
            ready = connection.wait(list(pending), left)
            for ours in [ours for ours in pending if ours in ready]:
                index = pending.pop(ours)
                try:
                    outcomes[index] = ours.recv()
                except EOFError:
                    outcomes[index] = (None, "worker process died")
        for index in pending.values():
            outcomes[index] = (None, f"timed out after {deadline:g}s")
    finally:
        for process, ours in workers:
            process.kill()
            process.join()
            ours.close()
    return [outcomes[index] for index in range(len(payloads))]


# -- shard body --------------------------------------------------------------


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


class _RunTimeout(Exception):
    """Raised inside a worker when a run exceeds its SIGALRM budget."""


def _run_one(spec: RunSpec, payload: _ShardPayload) -> RunResult:
    """Compute one spec on the payload's runner.

    In a worker process the run gets ``payload.timeout`` seconds of
    ``SIGALRM`` budget.  Inline in the calling process it runs untimed:
    that is the ground-truth tier, and the caller may be a thread (the
    service's executor), where ``signal.signal`` raises.
    """
    timeout = payload.timeout
    if (
        timeout is None
        or os.getpid() == payload.parent_pid
        or not hasattr(signal, "SIGALRM")
    ):
        return payload.runner.compute(spec)

    def _on_alarm(signum: int, frame: object) -> None:
        raise _RunTimeout(f"run exceeded {timeout}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return payload.runner.compute(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_shard(payload: _ShardPayload) -> tuple[list[RunReport], int]:
    """Shard body: run one shard and report every run with its result.

    A run that times out or raises is reported failed as
    ``"<Type>: <message>"`` and the shard *continues*; only a lost worker
    loses the whole shard.  Also returns the store writes a worker made:
    its runner is a fresh copy, so its store stats count this shard alone.
    Inline, the caller's runner wrote and counted them, so the shard
    reports 0.
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
) -> ExecutionReport:
    """Execute the run matrix, parallel where possible, and report.

    The deduplicated matrix is cut by :func:`plan_shards` into at most
    ``jobs`` shards of equal run counts (``None``: one per CPU).  Several
    shards each go to a worker process of their own, computed on a copy of
    ``runner`` (so with a store, workers fill it); one shard runs inline on
    ``runner`` itself.  Nothing here looks a run up: the caller passes only
    its misses.  Every result comes back by value in its
    :class:`RunReport`.

    ``timeout`` bounds each run in a worker process only, and every worker
    to ``timeout`` times the longest shard's run count plus 5 s.  A shard
    whose worker died, raised outside a run or missed that deadline (and
    was killed) is reported as one failed run per spec, ``where="worker"``.
    A one-shard plan runs untimed: the inline tier is the ground truth,
    and its caller may be a thread (the service's executor), where
    ``SIGALRM`` cannot be armed.  Failed runs are *not* re-run here: that
    policy belongs to the caller.

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
    shards = plan_shards(unique, jobs)
    payloads = [
        _ShardPayload(runner, tuple(shard), timeout, os.getpid())
        for shard in shards
    ]
    if len(shards) > 1:
        # Forked workers inherit what is imported here instead of each
        # importing it: the engines with the simulator they drive, and
        # scipy, which OAG builds need (resource engines, the
        # overlap-renumber stage).  With a store, every dataset is put
        # there first, so workers read it rather than race to write it.
        import_engines()
        sparse_backend()
        if runner.store is not None:
            for dataset in dict.fromkeys(spec.dataset for spec in unique):
                runner._dataset(dataset)
        deadline = (
            None if timeout is None else timeout * max(map(len, shards)) + 5.0
        )
        outcomes: list[tuple[list[RunReport], int]] = []
        for payload, (value, error) in zip(
            payloads, _in_workers(_run_shard, payloads, deadline)
        ):
            if error is not None:  # the shard was lost with its worker
                value = ([
                    RunReport(spec, ok=False, seconds=0.0, where="worker", error=error)
                    for spec in payload.specs
                ], 0)
            outcomes.append(value)
    else:
        outcomes = [_run_shard(payload) for payload in payloads]
    by_spec = {report.spec: report for reports, _ in outcomes for report in reports}
    return ExecutionReport(
        reports=tuple(by_spec[spec] for spec in unique),
        shards=tuple(tuple(shard) for shard in shards),
        seconds=time.perf_counter() - start,
        worker_writes=sum(writes for _, writes in outcomes),
    )
