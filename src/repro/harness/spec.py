"""The typed run specification — the single currency for "one simulation".

A :class:`RunSpec` names everything that identifies a simulation run:
engine, algorithm, dataset, :class:`~repro.sim.config.SystemConfig`,
PageRank iteration count, the ``profile``/``check`` instrumentation flags,
and the :class:`~repro.hypergraph.pipeline.PreprocessSpec` describing what
happens to the hypergraph before simulation.  Every layer speaks it: the
CLI builds one from flags, :meth:`Runner.run <repro.harness.runner.Runner.run>`
executes it, :mod:`repro.store.keys` derives both store keys from it,
:mod:`repro.harness.parallel` shard-plans on it, and the service's
``JobRequest`` wraps it verbatim — so a served result is byte-identical to
the same local run for *any* expressible configuration.

``None`` fields mean "use the executing runner's default"; call
:meth:`RunSpec.normalized` to resolve them.  Specs are frozen, hashable,
picklable, and JSON-round-trippable (:meth:`to_json`/:meth:`from_json`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.hypergraph.pipeline import PreprocessSpec
from repro.sim.config import SystemConfig, scaled_config

__all__ = ["RunSpec"]


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One cell of the run matrix, picklable and hashable.

    ``config=None`` means the default :func:`~repro.sim.config.scaled_config`,
    ``preprocessing=None`` the default :class:`PreprocessSpec` and
    ``pr_iterations=None`` the executing runner's count — kept as ``None``
    (not eagerly resolved) so specs stay cheap to hash and compare.
    """

    engine: str
    algorithm: str
    dataset: str
    config: SystemConfig | None = None
    pr_iterations: int | None = None
    profile: bool = False
    check: bool = False
    preprocessing: PreprocessSpec | None = None

    # -- resolution ----------------------------------------------------------

    def resolved_config(self) -> SystemConfig:
        return self.config if self.config is not None else scaled_config()

    def resolved_preprocessing(self) -> PreprocessSpec:
        return (
            self.preprocessing
            if self.preprocessing is not None
            else PreprocessSpec()
        )

    def normalized(
        self,
        pr_iterations: int = 2,
        profile: bool = False,
        check: bool = False,
    ) -> "RunSpec":
        """Resolve every ``None`` field: ``pr_iterations`` to the runner's
        count, ``config`` and ``preprocessing`` to their defaults.

        ``profile``/``check`` act as sticky overrides (a runner asked to
        profile a batch profiles specs that did not ask themselves);
        ``check`` implies ``profile`` because the invariant checker rides on
        the instrumented system.  The result has no ``None`` fields and is
        what the runner memoizes on and the store keys hash.
        """
        checked = self.check or check
        resolved = dataclasses.replace(
            self,
            config=self.resolved_config(),
            pr_iterations=(
                self.pr_iterations
                if self.pr_iterations is not None
                else pr_iterations
            ),
            profile=self.profile or profile or checked,
            check=checked,
            preprocessing=self.resolved_preprocessing(),
        )
        resolved.validate()
        return resolved

    def validate(self) -> None:
        for field in ("engine", "algorithm", "dataset"):
            value = getattr(self, field)
            if not isinstance(value, str) or not value:
                raise ConfigurationError(
                    f"RunSpec.{field} must be a non-empty string, got {value!r}"
                )
        iterations = self.pr_iterations
        if iterations is not None and (
            not isinstance(iterations, int)
            or isinstance(iterations, bool)
            or iterations < 1
        ):
            raise ConfigurationError(
                f"pr_iterations must be an int >= 1, got {iterations!r}"
            )
        for field in ("profile", "check"):
            value = getattr(self, field)
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"RunSpec.{field} must be a bool, got {value!r}"
                )
        for field, record in (
            ("config", SystemConfig),
            ("preprocessing", PreprocessSpec),
        ):
            value = getattr(self, field)
            if value is not None and not isinstance(value, record):
                raise ConfigurationError(
                    f"RunSpec.{field} must be None or a {record.__name__}, "
                    f"got {value!r}"
                )
        if self.preprocessing is not None:
            self.preprocessing.validate()

    def label(self) -> str:
        return f"{self.engine}/{self.algorithm}/{self.dataset}"

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict[str, object]:
        """A JSON-compatible dict; ``None`` fields are omitted so the
        round trip preserves "use the runner default"."""
        data: dict[str, object] = {
            "engine": self.engine,
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "profile": self.profile,
            "check": self.check,
        }
        if self.config is not None:
            data["config"] = dataclasses.asdict(self.config)
        if self.pr_iterations is not None:
            data["pr_iterations"] = self.pr_iterations
        if self.preprocessing is not None:
            data["preprocessing"] = self.preprocessing.to_json()
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "RunSpec":
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown RunSpec fields: {sorted(unknown)}"
            )
        for required in ("engine", "algorithm", "dataset"):
            if required not in data:
                raise ConfigurationError(f"RunSpec is missing {required!r}")
        config = None
        raw_config = data.get("config")
        if raw_config is not None:
            if not isinstance(raw_config, Mapping):
                raise ConfigurationError("RunSpec 'config' must be an object")
            try:
                config = SystemConfig(**dict(raw_config))
            except TypeError as exc:
                raise ConfigurationError(f"bad RunSpec config: {exc}") from None
        preprocessing = None
        raw_pre = data.get("preprocessing")
        if raw_pre is not None:
            if not isinstance(raw_pre, Mapping):
                raise ConfigurationError(
                    "RunSpec 'preprocessing' must be an object"
                )
            preprocessing = PreprocessSpec.from_json(raw_pre)
        scalars: dict[str, Any] = {
            field: value
            for field, value in data.items()
            if field not in ("config", "preprocessing")
        }
        spec = cls(**scalars, config=config, preprocessing=preprocessing)
        spec.validate()
        return spec
