"""Scheduler: store fast path, grouping, retry-then-fail settlement.

The dispatch tier is exercised with a monkeypatched worker body where the
real simulation is irrelevant — a single-payload ``run_tasks`` call runs
inline in the calling process, so the patch is visible to it.  End-to-end
compute (real workers, real results) is covered by ``test_server.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.service.scheduler as scheduler_mod
from repro.service import (
    JobQueue,
    Scheduler,
    SchedulerConfig,
    ServiceMetrics,
)
from repro.store import ArtifactStore
from tests.service.conftest import small_request


def run(coro):
    return asyncio.run(coro)


def make_parts(store=None, **config):
    metrics = ServiceMetrics()
    queue = JobQueue(metrics=metrics)
    config.setdefault("batch_window", 0.0)
    scheduler = Scheduler(
        queue, metrics, store=store, config=SchedulerConfig(**config)
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
    def test_prewarmed_key_is_served_without_compute(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        request = small_request()
        key = request.store_key()

        from repro.harness.runner import Runner

        result = Runner(cache_dir=None).run(request.spec)
        from repro.store.serialize import run_result_to_json

        payload = run_result_to_json(result)
        store.put_bytes(
            "results", key, json.dumps(payload).encode("utf-8")
        )

        queue, scheduler, metrics = make_parts(store=store)
        record = run(serve_one(queue, scheduler, request, key))
        assert record.state == "done"
        assert record.served_from == "store"
        assert record.result == payload
        assert metrics.store_hits == 1
        assert metrics.computed == 0  # no simulation ran

    def test_undecodable_store_entry_falls_back_to_compute(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        request = small_request()
        key = request.store_key()
        store.put_bytes(
            "results", key, json.dumps({"schema": "from-the-future"}).encode()
        )
        queue, scheduler, metrics = make_parts(store=store)
        record = run(serve_one(queue, scheduler, request, key))
        assert record.state == "done"
        assert record.served_from in ("worker", "inline")
        assert metrics.store_hits == 0
        assert metrics.computed == 1

    def test_no_store_always_computes(self):
        queue, scheduler, metrics = make_parts(store=None)
        record = run(serve_one(queue, scheduler, small_request(), "k1"))
        assert record.state == "done"
        assert metrics.computed == 1
        # The result travels serialized even without a store.
        from repro.store.serialize import run_result_from_json

        assert run_result_from_json(record.result).cycles > 0


class TestGrouping:
    def test_same_resources_land_in_one_group(self):
        queue, scheduler, _ = make_parts()

        async def body():
            records = []
            for algorithm, key in (("BFS", "k1"), ("CC", "k2"), ("BFS", "k3")):
                record, _ = await queue.submit(
                    small_request(algorithm=algorithm,
                                  dataset="WP" if key == "k3" else "FS"),
                    key,
                )
                records.append(record)
            return scheduler._plan_groups(records)

        groups = run(body())
        # FS/BFS and FS/CC share GlaResources; WP is its own group.
        # Largest group first (the LPT-style ordering).
        assert [len(group) for group in groups] == [2, 1]
        assert {r.request.spec.dataset for r in groups[0]} == {"FS"}


class TestRetrySettlement:
    def test_failing_job_retries_then_fails(self, monkeypatch):
        calls = []

        def flaky_group(payload):
            reports = []
            for unit in payload.jobs:
                calls.append(unit.job_id)
                reports.append({
                    "job_id": unit.job_id,
                    "ok": False,
                    "seconds": 0.0,
                    "error": "RuntimeError: injected",
                })
            return reports

        monkeypatch.setattr(scheduler_mod, "_execute_group", flaky_group)
        queue, scheduler, metrics = make_parts(job_retries=1)
        record = run(serve_one(queue, scheduler, small_request(), "k1"))
        assert record.state == "failed"
        assert record.error == "RuntimeError: injected"
        assert record.attempts == 2  # first try + one retry
        assert len(calls) == 2
        assert metrics.retries == 1
        assert metrics.failed == 1

    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        attempts = []

        def flaky_once(payload):
            reports = []
            for unit in payload.jobs:
                attempts.append(unit.job_id)
                if len(attempts) == 1:
                    reports.append({
                        "job_id": unit.job_id, "ok": False, "seconds": 0.0,
                        "error": "OSError: transient",
                    })
                else:
                    reports.append({
                        "job_id": unit.job_id, "ok": True, "seconds": 0.0,
                        "result": {"recovered": True},
                    })
            return reports

        monkeypatch.setattr(scheduler_mod, "_execute_group", flaky_once)
        queue, scheduler, metrics = make_parts(job_retries=1)
        record = run(serve_one(queue, scheduler, small_request(), "k1"))
        assert record.state == "done"
        assert record.result == {"recovered": True}
        assert metrics.retries == 1
        assert metrics.computed == 1

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


@pytest.mark.parametrize("timeout, expect_alarm", [(None, False), (5.0, True)])
def test_run_with_timeout_uses_alarm_only_on_main_thread(
    monkeypatch, timeout, expect_alarm
):
    import signal

    armed = []
    real_setitimer = signal.setitimer

    def spy(which, seconds):
        armed.append(seconds)
        return real_setitimer(which, 0.0)

    monkeypatch.setattr(signal, "setitimer", spy)

    class FakeRunner:
        def run(self, *args, **kwargs):
            return "ran"

    result = scheduler_mod._run_with_timeout(
        FakeRunner(), small_request(), timeout
    )
    assert result == "ran"
    assert bool(armed) == expect_alarm
