"""Typed job records for the simulation service.

A :class:`JobRequest` wraps one :class:`~repro.harness.spec.RunSpec` —
the same typed record ``repro run`` executes locally — plus a queue
``priority``; its :meth:`JobRequest.store_key` is the
:func:`~repro.store.keys.run_result_key` derived from that spec, which
makes the request *content-addressed*: two requests share a key iff a
completed result for one could legally serve the other (same dataset
content, same config, same pr-iterations, same preprocessing pipeline,
same profile/check flags).  That key is what request coalescing and the
store-backed fast path both hang off.  Because the spec travels verbatim
to the worker's runner, a served result is byte-identical to the same
local run for *any* expressible configuration, including the §VI-H
``w_min``/``d_max`` sensitivity sweeps and preprocessing stages.

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
from typing import Any, Sequence

from repro.errors import ReproError
from repro.harness.spec import RunSpec
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
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
class JobRequest:
    """One requested simulation: a :class:`~repro.harness.spec.RunSpec`
    plus a queue ``priority`` (higher runs sooner).

    The spec is carried fully normalized (no ``None`` fields), so the
    request's store key, the worker's execution, and an equivalent local
    ``repro run`` all agree regardless of either process's environment.
    """

    spec: RunSpec
    priority: int = 0

    @classmethod
    def build(
        cls,
        engine: str,
        algorithm: str,
        dataset: str,
        cores: int = 16,
        llc_kb: int = 4,
        pr_iterations: int = 2,
        profile: bool = False,
        check: bool = False,
        w_min: int | None = None,
        d_max: int | None = None,
        stages: Sequence[str] = (),
        priority: int = 0,
    ) -> "JobRequest":
        """Construct a request from ``repro submit``-style flat fields.

        Raises ``ValueError`` on malformed values (the service maps that to
        an HTTP 400); name validity is checked by :meth:`validate`.
        """
        from repro.sim.config import scaled_config

        checks = [
            ("cores", cores, 1), ("llc_kb", llc_kb, 1),
            ("pr_iterations", pr_iterations, 1),
        ]
        if w_min is not None:
            checks.append(("w_min", w_min, 1))
        if d_max is not None:
            checks.append(("d_max", d_max, 1))
        for field, value, minimum in checks:
            if not isinstance(value, int) or value < minimum:
                raise ValueError(
                    f"{field} must be an int >= {minimum}, got {value!r}"
                )
        for field, value in (("profile", profile), ("check", check)):
            if not isinstance(value, bool):
                raise ValueError(f"{field} must be a bool, got {value!r}")
        if isinstance(stages, str) or not all(
            isinstance(name, str) for name in stages
        ):
            raise ValueError(f"stages must be a list of names, got {stages!r}")
        defaults = PreprocessSpec()
        preprocessing = PreprocessSpec(
            w_min=defaults.w_min if w_min is None else w_min,
            d_max=defaults.d_max if d_max is None else d_max,
            stages=tuple(StageSpec.make(name) for name in stages),
        )
        spec = RunSpec(
            engine=engine,
            algorithm=algorithm,
            dataset=dataset,
            config=scaled_config(num_cores=cores, llc_kb=llc_kb),
            pr_iterations=pr_iterations,
            profile=profile or check,
            check=check,
            preprocessing=preprocessing,
        )
        return cls(spec=spec, priority=priority)

    def validate(self) -> None:
        """Raise ``ValueError`` unless every field names something real."""
        from repro.engine.registry import engine_names
        from repro.harness.runner import ALGORITHM_NAMES
        from repro.hypergraph.generators import PAPER_DATASETS

        try:
            self.spec.validate()
        except ReproError as exc:
            raise ValueError(str(exc)) from None
        if self.spec.engine not in engine_names():
            raise ValueError(f"unknown engine {self.spec.engine!r}")
        if self.spec.algorithm not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {self.spec.algorithm!r}")
        if self.spec.dataset not in (*PAPER_DATASETS, "AZ", "PK"):
            raise ValueError(f"unknown dataset {self.spec.dataset!r}")
        if self.spec.pr_iterations is None:
            raise ValueError("job spec must carry concrete pr_iterations")
        if not isinstance(self.priority, int):
            raise ValueError(f"priority must be an int, got {self.priority!r}")

    def config(self) -> SystemConfig:
        """The :class:`~repro.sim.config.SystemConfig` this request runs under."""
        return self.spec.resolved_config()

    def store_key(self) -> str:
        """The content-addressed :func:`~repro.store.keys.run_result_key`.

        Loads (or generates) the dataset to hash its structure — cached
        across calls by the harness dataset layer, so only the first
        request for a dataset pays the materialization.  The key hashes
        the dataset *as loaded*; the preprocessing stage list enters via
        the spec, so keying a request never runs its pipeline.
        """
        from repro.harness.datasets import graph_dataset, hypergraph_dataset
        from repro.store.keys import run_result_key

        if self.spec.dataset in ("AZ", "PK"):
            hypergraph = graph_dataset(self.spec.dataset)
        else:
            hypergraph = hypergraph_dataset(self.spec.dataset)
        return run_result_key(self.spec, hypergraph.content_hash())

    def label(self) -> str:
        """Short human-readable tag for logs and stats lines."""
        return self.spec.label()

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form for the HTTP API (the spec-wrapping wire format)."""
        return {"spec": self.spec.to_json(), "priority": self.priority}

    @classmethod
    def from_json(cls, obj: Any) -> "JobRequest":
        """Parse and validate a ``{"spec": {...}, "priority": n}`` payload;
        ``ValueError`` on anything else."""
        if not isinstance(obj, dict):
            raise ValueError("job request must be a JSON object")
        if "spec" not in obj:
            raise ValueError(
                'job request must wrap its run as {"spec": {...}, '
                f'"priority": n}}; got field(s): {", ".join(sorted(obj))}'
            )
        unknown = sorted(set(obj) - {"spec", "priority"})
        if unknown:
            raise ValueError(
                f"unknown job request field(s): {', '.join(unknown)}"
            )
        try:
            # Normalize service-side with the environment-independent
            # defaults so the coalescing key and the worker agree.
            spec = RunSpec.from_json(obj["spec"]).normalized()
        except ReproError as exc:
            raise ValueError(str(exc)) from None
        request = cls(spec=spec, priority=obj.get("priority", 0))
        request.validate()
        return request


@dataclasses.dataclass
class JobRecord:
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
    result: dict[str, Any] | None = None
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
        """The JSON the HTTP API serves for this job."""
        payload: dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "key": self.key,
            "request": self.request.to_json(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
            "coalesced_into": self.coalesced_into,
            "served_from": self.served_from,
            "latency": self.latency,
        }
        if include_result and self.result is not None:
            payload["result"] = self.result
        return payload
