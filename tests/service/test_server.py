"""End-to-end service tests over real HTTP: coalescing, fast path,
admission control, error mapping, drain.

These run full simulations through a live ``SimulationService`` — the
workload is the cheapest one in the suite, and the in-process dataset memo
keeps repeats fast.
"""

from __future__ import annotations

import concurrent.futures
import json
import time

import pytest

import repro
from repro.errors import JobNotFoundError, ServiceError, ServiceOverloadedError
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
from repro.service import SchedulerConfig
from tests.service.conftest import small_request


class TestCoalescingEndToEnd:
    def test_eight_identical_submits_compute_once(self, make_service):
        # A generous batch window keeps the primary queued while the
        # stragglers arrive.
        service, client = make_service(
            scheduler=SchedulerConfig(batch_window=0.25)
        )
        # Warm the service runner's dataset memo so all eight submits key
        # fast — the service shares this process, which widens the
        # coalescing window.
        service.runner.key(small_request().spec)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            jobs = list(pool.map(
                lambda _: client.submit(small_request()), range(8)
            ))
        finished = [client.wait(job["job_id"], timeout=120) for job in jobs]

        assert all(job["state"] == "done" for job in finished)
        results = {json.dumps(job["result"], sort_keys=True)
                   for job in finished}
        assert len(results) == 1  # every caller saw the same answer

        stats = client.stats()
        assert stats["submitted"] == 8
        assert stats["accepted"] == 1
        assert stats["coalesced"] == 7
        assert stats["computed"] == 1  # exactly one simulation ran
        assert stats["completed"] == 8
        coalesced_into = {job["coalesced_into"] for job in finished}
        assert None in coalesced_into  # the primary
        assert len(coalesced_into - {None}) == 1  # all onto one primary


class TestStoreFastPathEndToEnd:
    def test_resubmission_is_served_from_store(self, tmp_path, make_service):
        service, client = make_service(cache_dir=str(tmp_path / "cache"))
        first = client.run(small_request(), timeout=120)
        assert first["served_from"] in ("worker", "inline")

        second = client.run(small_request(), timeout=120)
        assert second["served_from"] == "store"
        assert second["result"] == first["result"]

        stats = client.stats()
        assert stats["store_hits"] == 1
        assert stats["computed"] == 1
        assert stats["store_hit_ratio"] == pytest.approx(0.5)
        # The batch computed on a copy of the service's runner, and the
        # hit was returned, not memoized.
        assert service.runner._results == {}

    def test_a_stored_dataset_keys_and_runs_a_request_without_generating(
        self, tmp_path, make_service, monkeypatch
    ):
        """A service over a store that holds FS reads it, through its
        runner, both to key a request and to compute it."""
        import repro.harness.datasets as datasets_mod
        from repro.harness.datasets import load_dataset
        from repro.store import ArtifactStore

        cache = tmp_path / "cache"
        load_dataset("FS", ArtifactStore(cache))

        def refuse(key):
            raise AssertionError(f"generated {key}")

        monkeypatch.setattr(datasets_mod, "_generate", refuse)
        service, client = make_service(cache_dir=str(cache))
        job = client.run(small_request(), timeout=120)
        assert job["state"] == "done"
        assert job["served_from"] == "inline"


class TestSpecFidelityEndToEnd:
    def test_non_default_preprocessing_round_trips_byte_identical(
        self, make_service
    ):
        """A job carrying non-default ``w_min``/``d_max`` and a pipeline
        stage executes through the service and returns exactly what the
        equivalent local ``repro run`` computes — the spec travels to the
        worker verbatim, so no field is silently dropped on the wire."""
        from repro.harness.runner import Runner
        from repro.service.client import ServiceClient
        from repro.store.serialize import run_result_to_json

        request = small_request(
            preprocessing=PreprocessSpec(
                w_min=5, d_max=8, stages=(StageSpec("locality-reorder"),)
            )
        )
        service, client = make_service()
        job = client.run(request, timeout=120)
        served = ServiceClient.run_result(job)

        local = Runner(cache_dir=None).run(request.spec)
        assert run_result_to_json(served) == run_result_to_json(local)

    def test_spec_wire_format_round_trips_the_request(self, make_service):
        """What /jobs echoes back parses to the submitted request."""
        from repro.service.jobs import JobRequest

        request = small_request(
            priority=2,
            preprocessing=PreprocessSpec(w_min=5, stages=(StageSpec("identity"),)),
        )
        service, client = make_service()
        job = client.submit(request)
        assert JobRequest.from_json(job["request"]) == request
        client.wait(job["job_id"], timeout=120)


class TestAdmissionEndToEnd:
    def test_full_queue_rejects_with_retryable_429(self, make_service):
        service, client = make_service(max_depth=0)
        with pytest.raises(ServiceOverloadedError):
            client.submit(small_request())
        assert client.stats()["rejected"] == 1
        assert client.health()["status"] == "ok"  # rejection is not death


class TestErrorMapping:
    def test_unknown_job_maps_to_job_not_found(self, make_service):
        _, client = make_service()
        with pytest.raises(JobNotFoundError):
            client.status("job-404-cafef00d")

    @pytest.mark.parametrize(
        "method, path, payload",
        [
            ("POST", "/jobs", {"engine": "NoSuchEngine", "algorithm": "BFS",
                               "dataset": "FS"}),
            ("POST", "/jobs", {"bogus": 1}),
        ],
    )
    def test_bad_request_maps_to_400(self, make_service, method, path, payload):
        _, client = make_service()
        with pytest.raises(ServiceError, match="HTTP 400"):
            client._request(method, path, payload)

    def test_unknown_route_and_wrong_method(self, make_service):
        _, client = make_service()
        with pytest.raises(ServiceError, match="HTTP 404"):
            client._request("GET", "/nope")
        with pytest.raises(ServiceError, match="HTTP 405"):
            client._request("GET", "/jobs", None)


class TestHealthz:
    def test_reports_version_and_gauges(self, make_service):
        _, client = make_service()
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        assert health["uptime_seconds"] >= 0


class TestDrain:
    def test_accepted_jobs_survive_drain(self, make_service):
        """The SIGTERM contract: admitted work finishes, nothing is lost."""
        service, client = make_service()
        job = client.submit(small_request())
        service.request_drain()
        deadline = time.monotonic() + 120
        record = service.queue.get(job["job_id"])
        while not record.finished and time.monotonic() < deadline:
            time.sleep(0.05)
        assert record.state == "done"
        assert record.result is not None
        # Once draining/stopped, new submissions are refused (429 while
        # draining, connection refused after close — one error vocabulary).
        with pytest.raises(ServiceError):
            client.submit(small_request())
