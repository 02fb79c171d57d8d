"""Fixtures for the simulation-service tests.

``make_service`` starts a real :class:`SimulationService` (its own event
loop in a daemon thread, OS-assigned port) and guarantees drain at
teardown; tests talk to it over actual HTTP via :class:`ServiceClient`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

from repro.harness.spec import RunSpec
from repro.service import (
    JobRequest,
    SchedulerConfig,
    ServiceClient,
    ServiceConfig,
    SimulationService,
)
from repro.sim.config import scaled_config

#: The cheapest real workload (``WORKLOAD`` in tests/service/test_cli.py
#: spells it as flags).
SMALL = RunSpec(
    "Hygra", "BFS", "FS",
    config=scaled_config(num_cores=4, llc_kb=2),
    pr_iterations=1,
)


def small_request(priority: int = 0, **changes) -> JobRequest:
    """A fast-to-simulate request; ``changes`` replace fields of ``SMALL``."""
    spec = dataclasses.replace(SMALL, **changes).normalized()
    return JobRequest(spec, priority)


@pytest.fixture
def make_service():
    """Factory: spin up a service on a free port; drain it on teardown.

    Returns ``(service, client)``; keyword overrides go into
    :class:`ServiceConfig` (``scheduler=`` takes a ``SchedulerConfig``).
    """
    started: list[tuple[SimulationService, threading.Thread]] = []

    def factory(**overrides):
        log = overrides.pop("log", None)
        overrides.setdefault("port", 0)
        overrides.setdefault("scheduler", SchedulerConfig(batch_window=0.02))
        service = SimulationService(ServiceConfig(**overrides), log=log)
        ready = threading.Event()

        def body() -> None:
            async def _main() -> None:
                task = asyncio.create_task(
                    service.run(install_signals=False)
                )
                while service.port is None:
                    await asyncio.sleep(0.005)
                ready.set()
                await task

            asyncio.run(_main())

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        assert ready.wait(15), "service failed to start"
        started.append((service, thread))
        return service, ServiceClient(port=service.port)

    yield factory
    for service, thread in started:
        service.request_drain()
        thread.join(60)
        assert not thread.is_alive(), "service failed to drain"
