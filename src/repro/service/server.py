"""The HTTP front end: a long-running asyncio simulation service.

Endpoints (JSON over HTTP/1.1, one request per connection):

``POST /jobs``
    Submit a :class:`~repro.service.jobs.JobRequest` body.  ``202`` with
    the job record on admission (``coalesced`` says whether it attached to
    an in-flight execution), ``429`` with ``Retry-After`` when admission
    control rejects, ``400`` on a malformed request.
``GET /jobs/<id>``
    The job's status record, including the serialized result once done.
    ``404`` for unknown/evicted ids.
``GET /healthz``
    Liveness: ``{"status": "ok"|"draining", "version": ...}`` plus queue
    gauges — deployed servers are identifiable by version.
``GET /stats``
    The :class:`~repro.service.metrics.ServiceMetrics` snapshot.

The server is deliberately stdlib-only (``asyncio.start_server`` plus a
minimal HTTP/1.1 reader): the repo's no-new-dependencies rule is a hard
constraint, and the four fixed routes don't justify a framework.

**Graceful drain:** SIGTERM (or SIGINT) stops admission, finishes every
accepted job (status polls keep working throughout, so blocked clients
complete), then closes the listener and returns.  Accepted jobs are never
lost.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import signal
import time
from typing import Any, Callable

from repro.errors import JobNotFoundError, ServiceError, ServiceOverloadedError
from repro.service.jobs import JobRequest
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler, SchedulerConfig

__all__ = ["DEFAULT_PORT", "ServiceConfig", "SimulationService"]

#: Default TCP port for ``repro serve`` (chosen to be unclaimed by IANA).
DEFAULT_PORT = 8573

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to assemble one service."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Artifact store root (``None``: ``$REPRO_CACHE_DIR`` as for any
    #: ``Runner``; unset, an in-memory service with no fast path).
    cache_dir: str | None = None
    #: Admission bound on queued primaries.
    max_depth: int = 64
    scheduler: SchedulerConfig = dataclasses.field(default_factory=SchedulerConfig)
    #: Seconds between stats lines (0: off).
    stats_interval: float = 0.0


class SimulationService:
    """One assembled service: queue + scheduler + HTTP server + metrics.

    Run it with :meth:`run` (blocks until drained) or drive
    :meth:`start` / :meth:`request_drain` / :meth:`drained` directly from
    tests.  ``log`` receives one-line progress messages (default: silent).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.log = log if log is not None else (lambda message: None)
        self.metrics = ServiceMetrics()
        self.queue = JobQueue(metrics=self.metrics, max_depth=self.config.max_depth)
        # Imported here: `repro submit` imports this package, not a runner.
        from repro.harness.runner import Runner

        #: The one runner over the service's store, for its lifetime: it
        #: keys every request and answers store hits, and each batch's
        #: misses run on a copy of it, so it never holds a result.
        self.runner = Runner(cache_dir=self.config.cache_dir)
        self.scheduler = Scheduler(
            self.queue, self.metrics, self.runner, config=self.config.scheduler
        )
        #: Actual bound port, available after :meth:`start` (``port=0`` asks
        #: the OS for a free one).
        self.port: int | None = None
        self.started_at = time.time()
        self._server: asyncio.AbstractServer | None = None
        self._scheduler_task: asyncio.Task[None] | None = None
        self._stats_task: asyncio.Task[None] | None = None
        self._drain_requested: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the scheduler."""
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler_task = asyncio.create_task(self.scheduler.run())
        if self.config.stats_interval > 0:
            self._stats_task = asyncio.create_task(self._stats_loop())
        from repro import __version__

        store = self.runner.store
        store_note = "no store" if store is None else f"store={store.root}"
        self.log(
            f"repro-serve v{__version__} listening on "
            f"{self.config.host}:{self.port} ({store_note}, "
            f"max-queue={self.config.max_depth})"
        )

    def request_drain(self) -> None:
        """Ask the service to drain and stop; safe from any thread."""
        if self._loop is None or self._drain_requested is None:
            return
        try:
            running_here = asyncio.get_running_loop() is self._loop
        except RuntimeError:
            running_here = False
        if running_here:
            self._drain_requested.set()
        else:
            # Tolerate a loop that already drained and closed (a second
            # SIGTERM, a test teardown racing the drain): the request is
            # then already satisfied.
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._drain_requested.set)

    async def drained(self) -> None:
        """Finish accepted work, stop the scheduler, close the listener."""
        self.log(
            f"draining: {self.queue.depth} queued, "
            f"{self.queue.in_flight} in flight"
        )
        await self.queue.drain()
        await self.queue.close()
        if self._scheduler_task is not None:
            await self._scheduler_task
        if self._stats_task is not None:
            self._stats_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._stats_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.log(
            f"drained: {self.metrics.completed} completed, "
            f"{self.metrics.failed} failed, "
            f"{self.metrics.coalesced} coalesced, "
            f"{self.metrics.rejected} rejected"
        )

    async def run(self, install_signals: bool = True) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_drain`), then drain."""
        await self.start()
        assert self._drain_requested is not None
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(signum, self._drain_requested.set)
        try:
            await self._drain_requested.wait()
        finally:
            await self.drained()
            if install_signals:
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    with contextlib.suppress(
                        NotImplementedError, ValueError, RuntimeError
                    ):
                        loop.remove_signal_handler(signum)

    async def _stats_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.stats_interval)
            self.log(self.metrics.render_line(self.queue.depth, self.queue.in_flight))

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload, headers = 500, {"error": "internal error"}, {}
        try:
            request = await self._read_request(reader)
            if request is None:
                writer.close()
                return
            method, path, body = request
            status, payload, headers = await self._route(method, path, body)
        except ServiceOverloadedError as exc:
            status, payload = 429, {
                "error": str(exc), "retryable": True,
            }
            headers = {"Retry-After": "1"}
        except JobNotFoundError as exc:
            status, payload = 404, {"error": str(exc)}
        except ServiceError as exc:
            status, payload = 500, {"error": str(exc)}
        except (ValueError, KeyError, TypeError) as exc:
            status, payload = 400, {"error": str(exc)}
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - a request must never kill the server
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            self._write_response(writer, status, payload, headers)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, bytes] | None:
        """Parse one HTTP/1.1 request: ``(method, path, body)``."""
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        body = await reader.readexactly(content_length) if content_length else b""
        return method, target.split("?", 1)[0], body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)

    # -- routes ------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        if path == "/jobs":
            if method != "POST":
                return 405, {"error": "POST /jobs"}, {}
            return await self._post_jobs(body)
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "GET /jobs/<id>"}, {}
            record = self.queue.get(path[len("/jobs/"):])
            return 200, {"job": record.status_json(include_result=True)}, {}
        if path == "/healthz" and method == "GET":
            from repro import __version__

            return 200, {
                "status": "draining" if self.queue.draining else "ok",
                "version": __version__,
                "queue_depth": self.queue.depth,
                "in_flight": self.queue.in_flight,
                "uptime_seconds": round(time.time() - self.started_at, 3),
            }, {}
        if path == "/stats" and method == "GET":
            return 200, self.metrics.snapshot(
                self.queue.depth, self.queue.in_flight
            ), {}
        return 404, {"error": f"no route {method} {path}"}, {}

    async def _post_jobs(
        self, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        try:
            obj = json.loads(body.decode("utf-8")) if body else {}
        except ValueError:
            raise ValueError("request body is not valid JSON") from None
        request = JobRequest.from_json(obj)
        self.metrics.submitted += 1
        # Keying loads the dataset (the runner's first request for it
        # only); keep that off the event loop so health/status stay
        # responsive.
        loop = asyncio.get_running_loop()
        key = await loop.run_in_executor(None, self.runner.key, request.spec)
        record, coalesced = await self.queue.submit(request, key)
        if coalesced:
            self.log(
                f"coalesced {record.job_id} ({request.label()}) "
                f"onto {record.coalesced_into}"
            )
        else:
            self.log(f"accepted {record.job_id} ({request.label()})")
        return 202, {"job": record.status_json(), "coalesced": coalesced}, {}
