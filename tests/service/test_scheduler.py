"""Scheduler: store fast path, retry-then-fail settlement, and the
executor's alarm policy in the service's threads.

The dispatch tier is exercised with a monkeypatched executor worker body
(``repro.harness.parallel._run_shard``) where the real simulation is
irrelevant — a one-shard plan runs inline in the calling process, so the
patch is visible to it.  A job lost with its worker is exercised on real
workers, through a runner subclass that kills the one computing BFS.
End-to-end compute (real workers, real results) is covered by
``test_server.py``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import threading
import time

import pytest

import repro.harness.parallel as parallel_mod
from repro.harness.parallel import RunReport
from repro.harness.runner import Runner
from repro.service import (
    JobQueue,
    Scheduler,
    SchedulerConfig,
    ServiceMetrics,
)
from repro.sim.config import scaled_config
from repro.store.serialize import run_result_to_json
from repro.store.store import ArtifactStore
from tests.service.conftest import small_request


@pytest.fixture(scope="module")
def small_result():
    """The real result of :func:`small_request`, simulated once."""
    return Runner(cache_dir=None).run(small_request().spec)


def run(coro):
    return asyncio.run(coro)


def make_parts(cache_dir=None, **config):
    """A queue and a scheduler over a runner on ``cache_dir``."""
    metrics = ServiceMetrics()
    queue = JobQueue(metrics=metrics)
    config.setdefault("batch_window", 0.0)
    scheduler = Scheduler(
        queue, metrics, Runner(cache_dir=cache_dir),
        config=SchedulerConfig(**config),
    )
    return queue, scheduler, metrics


async def serve_one(queue, scheduler, request, key):
    """Submit one job, run the scheduler until the queue drains."""
    runner = asyncio.create_task(scheduler.run())
    record, _ = await queue.submit(request, key)
    await queue.drain()
    await queue.close()
    await asyncio.wait_for(runner, timeout=60)
    return record


class TestStoreFastPath:
    def test_prewarmed_key_is_served_without_compute(
        self, tmp_path, small_result
    ):
        queue, scheduler, metrics = make_parts(cache_dir=tmp_path / "cache")
        request = small_request()
        key = scheduler.runner.key(request.spec)
        scheduler.runner.store.put_run_result(key, small_result)

        record = run(serve_one(queue, scheduler, request, key))
        assert record.state == "done"
        assert record.served_from == "store"
        assert record.result == run_result_to_json(small_result)
        assert metrics.store_hits == 1
        assert metrics.computed == 0  # no simulation ran

    def test_undecodable_store_entry_falls_back_to_compute(self, tmp_path):
        queue, scheduler, metrics = make_parts(cache_dir=tmp_path / "cache")
        store = scheduler.runner.store
        request = small_request()
        key = scheduler.runner.key(request.spec)
        # A JSON result, as stores before the raw form held them.
        store.put_bytes(
            "results", key, json.dumps({"schema": "from-the-future"}).encode()
        )
        record = run(serve_one(queue, scheduler, request, key))
        assert record.state == "done"
        assert record.served_from in ("worker", "inline")
        assert metrics.store_hits == 0
        assert metrics.computed == 1
        # The lookup decoded the entry and reclassified its checksum hit.
        assert store.stats.hits == 0
        assert store.stats.corruptions == 1

    def test_no_store_always_computes(self):
        queue, scheduler, metrics = make_parts(cache_dir=None)
        record = run(serve_one(queue, scheduler, small_request(), "k1"))
        assert record.state == "done"
        assert metrics.computed == 1
        # The result travels serialized even without a store.
        from repro.store.serialize import run_result_from_json

        assert run_result_from_json(record.result).cycles > 0


def test_batches_reuse_the_datasets_the_service_loaded(tmp_path, monkeypatch):
    """Each batch computes on a copy of the service's runner that shares
    its loaded datasets: three one-job FS batches read FS from the store
    at most once in total (keying the first request reads it)."""
    reads = []
    get_dataset = ArtifactStore.get_dataset

    def counted(store, key):
        reads.append(key)
        return get_dataset(store, key)

    monkeypatch.setattr(ArtifactStore, "get_dataset", counted)
    queue, scheduler, metrics = make_parts(cache_dir=tmp_path / "cache")

    async def three_batches():
        records = []
        for llc_kb in (2, 4, 8):
            request = small_request(config=scaled_config(num_cores=4, llc_kb=llc_kb))
            record, _ = await queue.submit(request, scheduler.runner.key(request.spec))
            batch = await queue.next_batch()
            assert batch == [record]
            await scheduler._handle_batch(batch)
            records.append(record)
        return records

    records = run(three_batches())
    assert [record.state for record in records] == ["done"] * 3
    assert metrics.computed == 3
    assert len(reads) <= 1
    assert not scheduler.runner._results


def test_one_job_batch_runs_inline_and_untimed(small_result):
    """A one-shard plan runs inline on the executor thread, where no alarm
    can be armed: a ``job_timeout`` far below the run time does not cut the
    job short, and it finishes ``done`` from ``inline``."""
    queue, scheduler, metrics = make_parts(job_timeout=0.001)
    start = time.perf_counter()
    record = run(serve_one(queue, scheduler, small_request(), "k1"))
    assert time.perf_counter() - start > 10 * 0.001
    assert record.state == "done"
    assert record.served_from == "inline"
    assert record.attempts == 1
    assert record.result == run_result_to_json(small_result)
    assert metrics.retries == 0


class TestRetrySettlement:
    def test_failing_job_retries_then_fails(self, monkeypatch):
        calls = []

        def flaky_shard(payload):
            calls.extend(payload.specs)
            return [
                RunReport(
                    spec=spec, ok=False, seconds=0.0, where="inline",
                    error="RuntimeError: injected",
                )
                for spec in payload.specs
            ], 0

        monkeypatch.setattr(parallel_mod, "_run_shard", flaky_shard)
        queue, scheduler, metrics = make_parts(job_retries=1)
        record = run(serve_one(queue, scheduler, small_request(), "k1"))
        assert record.state == "failed"
        assert record.error == "RuntimeError: injected"
        assert record.attempts == 2  # first try + one retry
        assert len(calls) == 2
        assert metrics.retries == 1
        assert metrics.failed == 1

    def test_transient_failure_recovers_on_retry(
        self, monkeypatch, small_result
    ):
        attempts = []

        def flaky_once(payload):
            attempts.extend(payload.specs)
            if len(attempts) == 1:
                return [RunReport(
                    spec=payload.specs[0], ok=False, seconds=0.0,
                    where="inline", error="OSError: transient",
                )], 0
            return [RunReport(
                spec=payload.specs[0], ok=True, seconds=0.0, where="inline",
                result=small_result,
            )], 0

        monkeypatch.setattr(parallel_mod, "_run_shard", flaky_once)
        queue, scheduler, metrics = make_parts(job_retries=1)
        record = run(serve_one(queue, scheduler, small_request(), "k1"))
        assert record.state == "done"
        assert record.result == run_result_to_json(small_result)
        assert metrics.retries == 1
        assert metrics.computed == 1

    @pytest.mark.parametrize("job_retries", [1, 0])
    def test_a_job_lost_with_its_worker_spends_a_retry(self, job_retries):
        """In a two-job batch, the job whose worker died is requeued, once:
        alone in the next batch it runs inline.  Its batch mate is done
        from its own worker.  With no retries left the lost job fails."""
        metrics = ServiceMetrics()
        queue = JobQueue(metrics=metrics)
        scheduler = Scheduler(
            queue, metrics, _BfsCrashingRunner(cache_dir=None),
            config=SchedulerConfig(workers=2, job_retries=job_retries),
        )

        async def two_job_batch():
            bfs, _ = await queue.submit(small_request(), "bfs")
            cc, _ = await queue.submit(small_request(algorithm="CC"), "cc")
            batch = await queue.next_batch()
            assert batch == [bfs, cc]
            await scheduler._handle_batch(batch)
            if job_retries:
                assert bfs.state == "queued"
                batch = await queue.next_batch()
                assert batch == [bfs]
                await scheduler._handle_batch(batch)
            return bfs, cc

        bfs, cc = run(two_job_batch())
        assert (cc.state, cc.served_from, cc.attempts) == ("done", "worker", 1)
        assert metrics.retries == job_retries
        if job_retries:
            assert (bfs.state, bfs.served_from, bfs.attempts) == ("done", "inline", 2)
        else:
            assert (bfs.state, bfs.error) == ("failed", "worker process died")

    def test_scheduler_crash_settles_records(self, monkeypatch):
        """An unexpected scheduler exception must not strand jobs in
        ``running`` — drain depends on every record reaching a terminal
        state."""

        async def explode(records):
            raise RuntimeError("planner exploded")

        queue, scheduler, _ = make_parts(job_retries=0)
        monkeypatch.setattr(scheduler, "_dispatch", explode)
        record = run(serve_one(queue, scheduler, small_request(), "k1"))
        assert record.state == "failed"
        assert "planner exploded" in record.error


class _BfsCrashingRunner(Runner):
    """Kills the worker process that computes a BFS run."""

    def compute(self, spec):
        if spec.algorithm == "BFS" and multiprocessing.parent_process():
            os._exit(1)
        return super().compute(spec)


@pytest.mark.parametrize("in_worker", [False, True])
def test_run_one_arms_alarm_only_in_a_worker(monkeypatch, in_worker):
    """A worker process runs under its ``SIGALRM`` budget; the calling
    process never arms one — the service calls the executor from an
    executor thread, where ``signal.signal`` would raise."""
    import signal

    armed = []
    real_setitimer = signal.setitimer

    def spy(which, seconds):
        armed.append(seconds)
        return real_setitimer(which, 0.0)

    monkeypatch.setattr(signal, "setitimer", spy)

    class FakeRunner:
        store = None

        def compute(self, spec):
            return "ran"

    payload = parallel_mod._ShardPayload(
        runner=FakeRunner(),
        specs=(),
        timeout=5.0,
        # A payload from another pid is what a worker process sees.
        parent_pid=os.getpid() + (1 if in_worker else 0),
    )
    outcome = []
    if in_worker:
        outcome.append(parallel_mod._run_one(small_request().spec, payload))
    else:
        thread = threading.Thread(
            target=lambda: outcome.append(
                parallel_mod._run_one(small_request().spec, payload)
            )
        )
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
    assert outcome == ["ran"]
    assert bool(armed) == in_worker
