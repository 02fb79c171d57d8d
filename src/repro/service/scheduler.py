"""The scheduler: drains the job queue through the batch executor.

Batches popped from the :class:`~repro.service.queue.JobQueue` flow through
two tiers of the service's one :class:`~repro.harness.runner.Runner`,
cheapest first:

1. **Store fast path** — a job that ``Runner.lookup`` finds (a verified,
   decodable result in the runner's store; never for a checked run) is
   answered immediately, touching no worker (and no simulation).
2. **Batch execution** — the remaining jobs go to
   :func:`~repro.harness.parallel.execute_runs`, the same executor
   ``repro bench`` uses: the batch is cut into shards of equal job counts,
   with jobs that consume one ``GlaResources`` artifact side by side (so
   it is built twice only where a shard boundary cuts their group), each
   job sent to a worker runs under a ``SIGALRM`` budget of
   ``job_timeout`` seconds, crashed workers are retried with
   jittered backoff, and every result comes back by value — so the service
   works with or without a persistent store; with one, workers also fill
   it.  Each batch runs on a copy of the runner (``Runner.__copy__``),
   whose result memo starts empty, so the service's runner never holds a
   result, and which shares the datasets the service has loaded.
   A job that timed out or raised is retried (the record goes back
   through the queue) up to ``job_retries`` times before it is failed.

The blocking ``execute_runs`` call runs in the event loop's default
executor, keeping the HTTP endpoints responsive while simulations execute.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import functools
from typing import TYPE_CHECKING

from repro.service.jobs import JobRecord
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue

if TYPE_CHECKING:
    from repro.harness.runner import Runner

__all__ = ["Scheduler", "SchedulerConfig"]

#: Pool-level retries for crashed/hung workers, and the base of their
#: jittered backoff (see :func:`~repro.store.pool.run_tasks`).
POOL_RETRIES = 1
POOL_BACKOFF = 0.25
#: Most primaries drained per batch.
MAX_BATCH = 32


@dataclasses.dataclass(frozen=True)
class SchedulerConfig:
    """Tunables for one :class:`Scheduler` instance."""

    #: Worker processes per dispatch (``None``: one per job, capped at CPUs).
    workers: int | None = None
    #: Per-job wall-clock budget inside a worker (``None``: unbounded).
    job_timeout: float | None = None
    #: Re-dispatches after a failed/timed-out attempt before the job fails.
    job_retries: int = 1
    #: Seconds to linger after the first queued job so concurrent
    #: submissions land in one batch.
    batch_window: float = 0.05


class Scheduler:
    """Drains a :class:`JobQueue` into simulation workers until closed."""

    def __init__(
        self,
        queue: JobQueue,
        metrics: ServiceMetrics,
        runner: Runner,
        config: SchedulerConfig | None = None,
    ) -> None:
        self.queue = queue
        self.metrics = metrics
        #: The service's runner: its lookup is the fast path, and copies of
        #: it compute each batch's misses.
        self.runner = runner
        self.config = config if config is not None else SchedulerConfig()

    async def _dispatch(self, records: list[JobRecord]) -> None:
        """Run one batch through the executor and settle every record."""
        from repro.harness.parallel import execute_runs
        from repro.store.serialize import run_result_to_json

        specs = [record.request.spec for record in records]
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None,
            functools.partial(
                execute_runs,
                specs,
                copy.copy(self.runner),
                jobs=self.config.workers,
                timeout=self.config.job_timeout,
                retries=POOL_RETRIES,
                backoff=POOL_BACKOFF,
            ),
        )
        by_spec = {run.spec: run for run in report.reports}
        for record, spec in zip(records, specs):
            run = by_spec[spec]
            if run.result is not None:
                self.metrics.computed += 1
                await self.queue.complete(
                    record, run_result_to_json(run.result), run.where
                )
            elif record.attempts <= self.config.job_retries:
                await self.queue.requeue(record)
            else:
                await self.queue.fail(record, str(run.error))

    async def _handle_batch(self, batch: list[JobRecord]) -> None:
        from repro.store.serialize import run_result_to_json

        compute: list[JobRecord] = []
        for record in batch:
            hit = self.runner.lookup(record.request.spec)
            if hit is not None:
                self.metrics.store_hits += 1
                await self.queue.complete(record, run_result_to_json(hit), "store")
            else:
                compute.append(record)
        if compute:
            await self._dispatch(compute)

    async def run(self) -> None:
        """Serve batches until the queue closes; never leaves jobs dangling.

        A batch whose handling raises unexpectedly fails its records (with
        the exception text) instead of leaving them in ``running`` — the
        drain path depends on every popped record reaching a terminal
        state.
        """
        while True:
            batch = await self.queue.next_batch(MAX_BATCH, self.config.batch_window)
            if not batch:
                return
            try:
                await self._handle_batch(batch)
            except Exception as exc:  # noqa: BLE001 - must settle the records
                for record in batch:
                    if record.state == "running":
                        await self.queue.fail(
                            record, f"scheduler error: {type(exc).__name__}: {exc}"
                        )
