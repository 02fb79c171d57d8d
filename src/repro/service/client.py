"""A small blocking client for the simulation service.

``repro submit``/``repro status`` are thin wrappers over this class; it is
also the scripting surface for tests and CI smoke jobs::

    from repro.harness.spec import RunSpec
    from repro.service import JobRequest, ServiceClient

    client = ServiceClient(port=8573)
    job = client.run(JobRequest(RunSpec("ChGraph", "PR", "WEB")))
    result = client.run_result(job)          # a full RunResult

Transport errors (server unreachable, connection reset) surface as
:class:`~repro.errors.ServiceError`; HTTP statuses map back onto the same
exception types the server raised (``429`` →
:class:`~repro.errors.ServiceOverloadedError`, ``404`` on a job →
:class:`~repro.errors.JobNotFoundError`), so callers handle one error
vocabulary whether the service is in-process or remote.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import TYPE_CHECKING, Any

from repro.errors import JobNotFoundError, ServiceError, ServiceOverloadedError
from repro.service.jobs import JobRequest
from repro.service.server import DEFAULT_PORT

if TYPE_CHECKING:
    from repro.engine.result import RunResult

__all__ = ["ServiceClient"]


class ServiceClient:
    """Blocking JSON-over-HTTP client for one service endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            status = response.status
            data = response.read()
        except OSError as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            connection.close()
        try:
            obj = json.loads(data.decode("utf-8")) if data else {}
        except ValueError as exc:
            raise ServiceError(
                f"service returned non-JSON ({status}): {data[:200]!r}"
            ) from exc
        if status in (200, 202):
            return obj
        error = obj.get("error", f"HTTP {status}")
        if status == 429 or status == 503:
            raise ServiceOverloadedError(error)
        if status == 404 and path.startswith("/jobs/"):
            raise JobNotFoundError(error)
        raise ServiceError(f"HTTP {status}: {error}")

    # -- API ---------------------------------------------------------------

    def submit(self, request: JobRequest) -> dict[str, Any]:
        """POST the request; returns the accepted job's status record.

        The record's ``"coalesced_into"`` is set when the request attached
        to an execution already in flight.
        """
        return self._request("POST", "/jobs", request.to_json())["job"]

    def status(self, job_id: str) -> dict[str, Any]:
        """GET one job's status record (with the result once done)."""
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def wait(
        self, job_id: str, timeout: float | None = None, poll: float = 0.1
    ) -> dict[str, Any]:
        """Poll until the job finishes; returns the terminal record.

        Raises :class:`ServiceError` if ``timeout`` seconds elapse first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["state"] in ("done", "failed"):
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for {job_id} "
                    f"(state: {job['state']})"
                )
            time.sleep(poll)

    def run(
        self, request: JobRequest, timeout: float | None = None
    ) -> dict[str, Any]:
        """Submit and wait; the blocking one-call path ``repro submit`` uses.

        Raises :class:`ServiceError` when the job *failed* — a successful
        return always carries a result payload.
        """
        job = self.wait(self.submit(request)["job_id"], timeout=timeout)
        if job["state"] != "done":
            raise ServiceError(
                f"job {job['job_id']} failed: {job.get('error') or 'unknown'}"
            )
        return job

    @staticmethod
    def run_result(job: dict[str, Any]) -> "RunResult":
        """Reconstruct the full :class:`~repro.engine.result.RunResult` from
        a finished job record — the exact object ``repro run`` computes."""
        from repro.store.serialize import run_result_from_json

        result = job.get("result")
        if result is None:
            raise ServiceError(f"job {job.get('job_id')} carries no result")
        return run_result_from_json(result)

    def health(self) -> dict[str, Any]:
        """GET /healthz."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        """GET /stats."""
        return self._request("GET", "/stats")
