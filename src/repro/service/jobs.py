"""Typed job records for the simulation service.

A :class:`JobRequest` wraps one :class:`~repro.harness.spec.RunSpec` —
the same typed record ``repro run`` executes locally — plus a queue
``priority``.  The service keys it with its runner's
:meth:`~repro.harness.runner.Runner.key`, the run's store key, which makes
the request *content-addressed*: two requests share a key iff a completed
result for one could legally serve the other (same dataset content, same
config, same pr-iterations, same preprocessing pipeline, same
profile/check flags).  That key is what request coalescing hangs off.
Because the spec travels verbatim to the worker's runner, a served result
is byte-identical to the same local run for *any* expressible
configuration, including the §VI-H ``w_min``/``d_max`` sensitivity sweeps
and preprocessing stages.

A :class:`JobRecord` is the service-side lifecycle of one accepted request:
``queued → running → done | failed``, with timestamps, retry attempts, the
serialized :class:`~repro.engine.result.RunResult` payload once finished,
and where the answer came from (``worker``/``inline``/``store``/
``coalesced``).  Both records are plain JSON-serializable data so they can
travel over the HTTP API unchanged.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Any

from repro.errors import ConfigurationError
from repro.harness.spec import RunSpec
from repro.records import Record, check_fields
from repro.sim.config import SystemConfig

__all__ = ["JOB_STATES", "JobRecord", "JobRequest"]

#: Lifecycle states of a service job, in order.
JOB_STATES = ("queued", "running", "done", "failed")

_job_counter = itertools.count(1)


def _new_job_id() -> str:
    """Process-unique, monotonically readable job id (``job-7-1f2a…``)."""
    import uuid

    return f"job-{next(_job_counter)}-{uuid.uuid4().hex[:8]}"


@dataclasses.dataclass(frozen=True)
class JobRequest(Record):
    """One requested simulation: a :class:`~repro.harness.spec.RunSpec`
    plus a queue ``priority`` (higher runs sooner).

    The spec is carried normalized (no ``None`` fields), so the request's
    key, the worker's execution, and an equivalent local ``repro run`` all
    agree regardless of either process's environment.
    Its wire form is ``{"spec": {...}, "priority": n}``
    (:class:`~repro.records.Record`); every bad payload raises
    :class:`~repro.errors.ConfigurationError`, a ``ValueError``.
    """

    spec: RunSpec
    priority: int = 0

    def __post_init__(self) -> None:
        # Normalize with the environment-independent defaults so the
        # coalescing key and the worker agree.
        object.__setattr__(self, "spec", self.spec.normalized())

    def validate(self) -> None:
        """Raise unless every field names something registered."""
        from repro.engine.registry import engine_names
        from repro.harness.datasets import DATASETS
        from repro.harness.runner import ALGORITHM_NAMES

        check_fields(self)
        for what, name, known in (
            ("engine", self.spec.engine, engine_names()),
            ("algorithm", self.spec.algorithm, ALGORITHM_NAMES),
            ("dataset", self.spec.dataset, DATASETS),
        ):
            if name not in known:
                raise ConfigurationError(f"unknown {what} {name!r}")

    def config(self) -> SystemConfig:
        """The :class:`~repro.sim.config.SystemConfig` this request runs under."""
        return self.spec.resolved_config()

    def label(self) -> str:
        """Short human-readable tag for logs and stats lines."""
        return self.spec.label()


@dataclasses.dataclass
class JobRecord(Record):
    """The service-side lifecycle of one accepted :class:`JobRequest`."""

    request: JobRequest
    key: str
    job_id: str = dataclasses.field(default_factory=_new_job_id)
    state: str = "queued"
    submitted_at: float = dataclasses.field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0
    error: str | None = None
    #: Serialized ``RunResult`` (the store's JSON payload) once finished.
    result: dict | None = None
    #: Primary job this record coalesced onto, if any.
    coalesced_into: str | None = None
    #: Where the answer came from: ``worker``/``inline``/``store``/``coalesced``.
    served_from: str | None = None

    @property
    def finished(self) -> bool:
        """Whether the record reached a terminal state."""
        return self.state in ("done", "failed")

    @property
    def latency(self) -> float | None:
        """Submit-to-finish wall seconds, once finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def status_json(self, include_result: bool = False) -> dict[str, Any]:
        """The JSON the HTTP API serves for this job: the record's own plus
        ``latency``, and ``result`` only when asked for and present."""
        payload = self.to_json()
        if not include_result or self.result is None:
            del payload["result"]
        payload["latency"] = self.latency
        return payload
