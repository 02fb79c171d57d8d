"""The simulation-serving subsystem: the repo's traffic-facing layer.

``repro serve`` turns the one-shot harness into a long-lived asyncio
service: requests are typed jobs keyed by the service's one
:class:`~repro.harness.runner.Runner` (``Runner.key``, the run's
content-addressed store key), a bounded priority queue coalesces
concurrent identical requests onto one in-flight execution and sheds load
with retryable rejections, and a scheduler drains batches through
:func:`~repro.harness.parallel.execute_runs`, the batch executor
``repro bench`` uses — with a store fast path (``Runner.lookup``) that
answers repeat requests without simulating at all.  A served result is
byte-identical to what the same ``repro run`` invocation prints.

Layout
------
:mod:`repro.service.jobs`
    ``JobRequest``/``JobRecord``: typed, JSON-serializable job records.
:mod:`repro.service.queue`
    ``JobQueue``: coalescing, admission control, drain.
:mod:`repro.service.scheduler`
    ``Scheduler``: the runner's store fast path, then ``execute_runs``
    worker dispatch with per-job timeout/retry.
:mod:`repro.service.server`
    ``SimulationService``: the asyncio JSON-over-HTTP front end
    (``POST /jobs``, ``GET /jobs/<id>``, ``GET /healthz``, ``GET /stats``)
    with graceful SIGTERM drain.
:mod:`repro.service.metrics`
    ``ServiceMetrics``: depth/in-flight gauges, coalescing and store-hit
    counters, p50/p95/p99 latency.
:mod:`repro.service.client`
    ``ServiceClient``: the blocking client behind ``repro submit``/
    ``repro status``.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import JOB_STATES, JobRecord, JobRequest
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.server import DEFAULT_PORT, ServiceConfig, SimulationService

__all__ = [
    "DEFAULT_PORT",
    "JOB_STATES",
    "JobQueue",
    "JobRecord",
    "JobRequest",
    "Scheduler",
    "SchedulerConfig",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "SimulationService",
]
