"""JobRequest/JobRecord: validation, JSON round trip, content addressing."""

from __future__ import annotations

import pytest

from repro.harness.runner import Runner
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
from repro.service import JOB_STATES, JobRecord, JobRequest
from repro.sim.config import scaled_config
from tests.service.conftest import small_request


def service_key(request: JobRequest) -> str:
    """What the service keys ``request`` by: its runner's ``Runner.key``."""
    return Runner(cache_dir=None).key(request.spec)


def merged(base: dict, changes: dict) -> dict:
    """``base`` with ``changes`` applied, nested objects key by key."""
    out = dict(base)
    for key, value in changes.items():
        nested = isinstance(value, dict) and isinstance(base.get(key), dict)
        out[key] = merged(base[key], value) if nested else value
    return out


class TestJobRequestValidation:
    """The request boundary: wire payloads through ``JobRequest.from_json``,
    the path the server takes before it answers HTTP 400."""

    def test_valid_request_passes(self):
        request = JobRequest.from_json(small_request().to_json())
        request.validate()
        assert request == small_request()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"spec": {"engine": "NoSuchEngine"}},
            {"spec": {"algorithm": "Dijkstra"}},
            {"spec": {"dataset": "nope"}},
            {"spec": {"config": {"num_cores": 0}}},
            {"spec": {"config": {"l3_size": -1024}}},
            {"spec": {"pr_iterations": 0}},
            {"spec": {"config": {"num_cores": 2.5}}},
            {"spec": {"profile": 1}},
            {"priority": "high"},
            {"spec": {"check": "false"}},
            {"spec": {"profile": "no"}},
            {"spec": {"pr_iterations": 2.7}},
            {"spec": {"pr_iterations": True}},
            {"spec": {"preprocessing": {"w_min": 3.9}}},
            {"spec": {"preprocessing": {"stages": [
                {"name": "locality-reorder", "params": {"level": 3}},
            ]}}},
            {"spec": {"config": {"mlp": "fast"}}},
            {"spec": {"config": {"mlp": 0.0}}},
            {"spec": {"config": {"mlp": float("inf")}}},
            {"spec": {"config": {"track_coherence": "no"}}},
            {"spec": {"config": {"l1_assoc": 0}}},
            {"spec": {"config": {"line_size": 48}}},
            {"priority": True},
        ],
    )
    def test_bad_field_rejected(self, overrides):
        payload = merged(small_request().to_json(), overrides)
        with pytest.raises(ValueError):
            JobRequest.from_json(payload)


class TestJobRequestJson:
    def test_round_trip(self):
        request = small_request(priority=3, profile=True)
        assert JobRequest.from_json(request.to_json()) == request

    def test_defaults_fill_in(self):
        request = JobRequest.from_json(
            {"spec": {"engine": "Hygra", "algorithm": "BFS", "dataset": "FS"}}
        )
        assert request.config().num_cores == 16
        assert request.spec.pr_iterations == 2
        assert request.priority == 0

    @pytest.mark.parametrize(
        "obj, match",
        [
            ([], "JSON object"),
            ({"spec": {"engine": "Hygra", "algorithm": "BFS"}}, "missing 'dataset'"),
            (
                {"spec": {"engine": "Hygra", "algorithm": "BFS", "dataset": "FS"},
                 "turbo": True},
                "unknown job request field",
            ),
        ],
    )
    def test_junk_rejected(self, obj, match):
        with pytest.raises(ValueError, match=match):
            JobRequest.from_json(obj)

    def test_flat_form_is_rejected_naming_the_spec_form(self):
        with pytest.raises(ValueError, match='"spec"'):
            JobRequest.from_json(
                {"engine": "Hygra", "algorithm": "BFS", "dataset": "FS"}
            )


class TestStoreKey:
    def test_an_int_and_a_float_config_value_share_a_key(self):
        """Equal specs must be one run to the memo, the store and the
        service's coalescing alike."""
        from repro.store.keys import run_result_key

        requests = [
            JobRequest.from_json(
                merged(small_request().to_json(), {"spec": {"config": {"mlp": mlp}}})
            )
            for mlp in (2, 2.0)
        ]
        assert requests[0] == requests[1]
        keys = {run_result_key(r.spec, "0" * 64) for r in requests}
        assert len(keys) == 1

    def test_matches_runner_key(self):
        """The service key IS the run_result_key of the equivalent local
        spec — the property both coalescing and the store fast path rest
        on, now for *any* expressible configuration."""
        from repro.harness.datasets import hypergraph_dataset
        from repro.harness.spec import RunSpec
        from repro.sim.config import scaled_config
        from repro.store.keys import run_result_key

        local = RunSpec(
            "Hygra", "BFS", "FS",
            config=scaled_config(num_cores=4, llc_kb=2),
            pr_iterations=1,
        ).normalized()
        expected = run_result_key(local, hypergraph_dataset("FS").content_hash())
        assert service_key(small_request()) == expected

    def test_key_ignores_priority(self):
        # Priority affects scheduling order, not the result — requests that
        # differ only in priority must coalesce.
        assert service_key(small_request(priority=0)) == \
            service_key(small_request(priority=9))

    def test_key_distinguishes_config_and_profile(self):
        base = service_key(small_request())
        eight_cores = scaled_config(num_cores=8, llc_kb=2)
        assert service_key(small_request(config=eight_cores)) != base
        assert service_key(small_request(profile=True)) != base

    def test_key_distinguishes_preprocessing(self):
        # The v4 keys fix the latent aliasing: sweeps and staged runs were
        # previously indistinguishable from default runs.
        base = service_key(small_request())
        for preprocessing in (
            PreprocessSpec(w_min=5),
            PreprocessSpec(d_max=8),
            PreprocessSpec(stages=(StageSpec("locality-reorder"),)),
        ):
            assert service_key(small_request(preprocessing=preprocessing)) != base
        assert service_key(small_request(check=True)) != base


class TestJobRecord:
    def test_lifecycle_fields(self):
        record = JobRecord(request=small_request(), key="k")
        assert record.state == JOB_STATES[0] == "queued"
        assert not record.finished
        assert record.latency is None
        record.state = "done"
        record.finished_at = record.submitted_at + 2.5
        assert record.finished
        assert record.latency == pytest.approx(2.5)

    def test_ids_are_unique(self):
        ids = {JobRecord(request=small_request(), key="k").job_id
               for _ in range(50)}
        assert len(ids) == 50

    def test_status_json_hides_result_by_default(self):
        record = JobRecord(request=small_request(), key="k")
        record.result = {"cycles": 1}
        assert "result" not in record.status_json()
        assert record.status_json(include_result=True)["result"] == {"cycles": 1}
        # The payload is pure JSON (travels the HTTP API unchanged).
        import json

        json.dumps(record.status_json(include_result=True))

    def test_status_json_serves_every_field_and_the_latency(self):
        record = JobRecord(request=small_request(), key="k", state="done")
        record.finished_at = record.submitted_at + 1.5
        record.result = {"cycles": 1}
        status = record.status_json(include_result=True)
        assert set(status) == {
            "job_id", "state", "key", "request", "submitted_at", "started_at",
            "finished_at", "attempts", "error", "coalesced_into", "served_from",
            "latency", "result",
        }
        assert status["request"] == small_request().to_json()
        assert status["latency"] == pytest.approx(1.5)
        assert status["result"] is record.result
        # A record without a result serves none, even when asked.
        record.result = None
        assert "result" not in record.status_json(include_result=True)
