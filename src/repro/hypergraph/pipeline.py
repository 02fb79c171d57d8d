"""Composable, content-addressed preprocessing pipeline.

A :class:`PreprocessSpec` names everything that happens to a hypergraph
between loading and simulation: the OAG build parameters (``w_min``,
``d_max``) and an ordered list of named preprocessing *stages*.  Stages are
looked up in a registry so a spec is pure data — JSON-round-trippable,
hashable into store keys, and executable anywhere.

The registered stages are:

- ``identity`` — the no-op stage (useful for testing that stage plumbing
  itself is free);
- ``locality-reorder`` — the §VI-H / Figure 24 BFS renumbering from
  :mod:`repro.hypergraph.reorder`, lifted into the production path;
- ``overlap-renumber`` — the overlap-aware partitioning of
  :mod:`repro.hypergraph.community_partition`, which renumbers both sides
  along global chains so overlap clusters land inside one chunk (the
  ``ablation_partitioning`` figure).

Stages that permute vertices report the permutation so the runner can
un-permute algorithm results back to the original ids.

Stage names and parameters are hashed into both ``resources_key`` and
``run_result_key`` (see :mod:`repro.store.keys`), so cached artifacts can
never alias across preprocessing pipelines.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

import numpy as np

from repro.core.chain import DEFAULT_D_MAX
from repro.core.oag import DEFAULT_W_MIN
from repro.errors import ConfigurationError
from repro.hypergraph.community_partition import overlap_aware_renumber
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.reorder import locality_reorder

__all__ = [
    "StageSpec",
    "PreprocessSpec",
    "StageResult",
    "PipelineResult",
    "stage",
    "stage_names",
    "apply_pipeline",
]

#: JSON-compatible scalar parameter values a stage may take.
ParamValue = bool | int | float | str


@dataclasses.dataclass(frozen=True)
class StageSpec:
    """One named preprocessing stage with its parameters.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so the
    spec stays hashable and its JSON form is canonical.  Use
    :meth:`StageSpec.make` to build one from keyword arguments.
    """

    name: str
    params: tuple[tuple[str, ParamValue], ...] = ()

    @classmethod
    def make(cls, name: str, **params: ParamValue) -> "StageSpec":
        return cls(name=name, params=tuple(sorted(params.items())))

    def param_dict(self) -> dict[str, ParamValue]:
        return dict(self.params)

    def validate(self) -> None:
        if self.name not in _STAGES:
            known = ", ".join(sorted(_STAGES)) or "(none)"
            raise ConfigurationError(
                f"unknown preprocessing stage {self.name!r}; "
                f"registered stages: {known}"
            )

    def to_json(self) -> dict[str, object]:
        return {"name": self.name, "params": self.param_dict()}

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "StageSpec":
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise ConfigurationError(
                f"unknown StageSpec fields: {sorted(unknown)}"
            )
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigurationError("StageSpec requires a non-empty 'name'")
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigurationError("StageSpec 'params' must be an object")
        spec = cls.make(name, **dict(params))
        spec.validate()
        return spec


@dataclasses.dataclass(frozen=True)
class PreprocessSpec:
    """Everything done to a hypergraph before simulation.

    ``w_min``/``d_max`` parameterize the OAG/chain build (they always ran
    per-run; now they are named).  ``stages`` run in order on the loaded
    hypergraph before resources are built.
    """

    w_min: int = DEFAULT_W_MIN
    d_max: int = DEFAULT_D_MAX
    stages: tuple[StageSpec, ...] = ()

    def validate(self) -> None:
        if self.w_min < 1:
            raise ConfigurationError(f"w_min must be >= 1, got {self.w_min}")
        if self.d_max < 1:
            raise ConfigurationError(f"d_max must be >= 1, got {self.d_max}")
        for s in self.stages:
            s.validate()

    def to_json(self) -> dict[str, object]:
        return {
            "w_min": self.w_min,
            "d_max": self.d_max,
            "stages": [s.to_json() for s in self.stages],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "PreprocessSpec":
        unknown = set(data) - {"w_min", "d_max", "stages"}
        if unknown:
            raise ConfigurationError(
                f"unknown PreprocessSpec fields: {sorted(unknown)}"
            )
        raw_stages = data.get("stages", [])
        if not isinstance(raw_stages, (list, tuple)):
            raise ConfigurationError("PreprocessSpec 'stages' must be a list")
        spec = cls(
            w_min=int(data.get("w_min", DEFAULT_W_MIN)),
            d_max=int(data.get("d_max", DEFAULT_D_MAX)),
            stages=tuple(StageSpec.from_json(s) for s in raw_stages),
        )
        spec.validate()
        return spec


@dataclasses.dataclass(frozen=True)
class StageResult:
    """What one stage produced: the transformed hypergraph, the vertex
    permutation it applied (``perm[old_id] = new_id``; ``None`` if ids are
    untouched), and the stage's own approximate memory traffic."""

    hypergraph: Hypergraph
    vertex_perm: np.ndarray | None = None
    cost_accesses: int = 0


@dataclasses.dataclass(frozen=True)
class PipelineResult:
    """The composed outcome of running every stage in a spec."""

    hypergraph: Hypergraph
    #: Composed permutation over all stages (``perm[old_id] = new_id``), or
    #: ``None`` when no stage renumbered vertices.
    vertex_perm: np.ndarray | None
    cost_accesses: int


StageFn = Callable[[Hypergraph, Mapping[str, ParamValue]], StageResult]

_STAGES: dict[str, StageFn] = {}


def stage(name: str) -> Callable[[StageFn], StageFn]:
    """Register a preprocessing stage under ``name``."""

    def decorate(fn: StageFn) -> StageFn:
        if name in _STAGES:
            raise ValueError(f"duplicate preprocessing stage {name!r}")
        _STAGES[name] = fn
        return fn

    return decorate


def stage_names() -> tuple[str, ...]:
    """Every registered stage name, sorted (the CLI's ``--preprocess`` choices)."""
    return tuple(sorted(_STAGES))


def _reject_params(name: str, params: Mapping[str, ParamValue]) -> None:
    if params:
        raise ConfigurationError(
            f"stage {name!r} takes no parameters, got {sorted(params)}"
        )


@stage("identity")
def _identity(
    hypergraph: Hypergraph, params: Mapping[str, ParamValue]
) -> StageResult:
    _reject_params("identity", params)
    return StageResult(hypergraph=hypergraph)


@stage("locality-reorder")
def _locality_reorder(
    hypergraph: Hypergraph, params: Mapping[str, ParamValue]
) -> StageResult:
    _reject_params("locality-reorder", params)
    reordering = locality_reorder(hypergraph)
    return StageResult(
        hypergraph=reordering.hypergraph,
        vertex_perm=reordering.vertex_perm,
        cost_accesses=reordering.cost_accesses,
    )


@stage("overlap-renumber")
def _overlap_renumber(
    hypergraph: Hypergraph, params: Mapping[str, ParamValue]
) -> StageResult:
    _reject_params("overlap-renumber", params)
    partitioned = overlap_aware_renumber(hypergraph, side="both")
    return StageResult(
        hypergraph=partitioned.hypergraph,
        vertex_perm=partitioned.vertex_perm,
    )


def apply_pipeline(
    hypergraph: Hypergraph, preprocessing: PreprocessSpec
) -> PipelineResult:
    """Run every stage in order, composing vertex permutations.

    If stage 1 maps ``old -> mid`` and stage 2 maps ``mid -> new``, the
    composed permutation maps ``old -> new`` so one gather
    (``values[perm]``) restores id-stable algorithm output.
    """
    preprocessing.validate()
    current = hypergraph
    composed: np.ndarray | None = None
    total_cost = 0
    for spec in preprocessing.stages:
        result = _STAGES[spec.name](current, spec.param_dict())
        current = result.hypergraph
        total_cost += result.cost_accesses
        if result.vertex_perm is not None:
            if composed is None:
                composed = result.vertex_perm
            else:
                composed = result.vertex_perm[composed]
    return PipelineResult(
        hypergraph=current, vertex_perm=composed, cost_accesses=total_cost
    )
