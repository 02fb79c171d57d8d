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

Stage names are hashed into both ``resources_key`` and
``run_result_key`` (see :mod:`repro.store.keys`), so cached artifacts can
never alias across preprocessing pipelines.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.core.chain import DEFAULT_D_MAX
from repro.core.oag import DEFAULT_W_MIN
from repro.errors import ConfigurationError
from repro.hypergraph.community_partition import overlap_aware_renumber
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.reorder import locality_reorder
from repro.records import Record, check_fields

__all__ = [
    "StageSpec",
    "PreprocessSpec",
    "StageResult",
    "PipelineResult",
    "stage",
    "stage_names",
    "apply_pipeline",
]

@dataclasses.dataclass(frozen=True)
class StageSpec(Record):
    """One named preprocessing stage; no registered stage takes parameters."""

    name: str

    @classmethod
    def make(cls, name: str) -> "StageSpec":
        """The stage registered as ``name`` (the same as ``StageSpec(name)``)."""
        return cls(name)

    def validate(self) -> None:
        check_fields(self)
        if self.name not in _STAGES:
            known = ", ".join(sorted(_STAGES)) or "(none)"
            raise ConfigurationError(
                f"unknown preprocessing stage {self.name!r}; "
                f"registered stages: {known}"
            )

    @classmethod
    def from_json(cls, data: object) -> "StageSpec":
        """Also read the ``"params": {}`` that stages were once written
        with (store keys still hash it, see :mod:`repro.store.keys`)."""
        if not isinstance(data, dict):
            raise ConfigurationError(f"a stage must be an object, got {data!r}")
        params = data.get("params", {})
        if params != {}:
            raise ConfigurationError(
                f"stage {data.get('name')!r} takes no parameters, got {params!r}"
            )
        return super().from_json(
            {key: value for key, value in data.items() if key != "params"}
        )


@dataclasses.dataclass(frozen=True)
class PreprocessSpec(Record):
    """Everything done to a hypergraph before simulation.

    ``w_min``/``d_max`` parameterize the OAG/chain build (they always ran
    per-run; now they are named).  ``stages`` run in order on the loaded
    hypergraph before resources are built.
    """

    w_min: int = DEFAULT_W_MIN
    d_max: int = DEFAULT_D_MAX
    stages: tuple[StageSpec, ...] = ()

    def validate(self) -> None:
        check_fields(self)
        for field in ("w_min", "d_max"):
            value = getattr(self, field)
            if value < 1:
                raise ConfigurationError(f"{field} must be >= 1, got {value!r}")


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


StageFn = Callable[[Hypergraph], StageResult]

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


@stage("identity")
def _identity(hypergraph: Hypergraph) -> StageResult:
    return StageResult(hypergraph=hypergraph)


@stage("locality-reorder")
def _locality_reorder(hypergraph: Hypergraph) -> StageResult:
    reordering = locality_reorder(hypergraph)
    return StageResult(
        hypergraph=reordering.hypergraph,
        vertex_perm=reordering.vertex_perm,
        cost_accesses=reordering.cost_accesses,
    )


@stage("overlap-renumber")
def _overlap_renumber(hypergraph: Hypergraph) -> StageResult:
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
        result = _STAGES[spec.name](current)
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
