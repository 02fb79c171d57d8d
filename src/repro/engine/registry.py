"""Declarative engine registry: the single source of engine names.

The harness, the CLI and the parallel executor all need to turn an engine
name into an instance; keeping the mapping declarative here means adding an
engine is one :class:`EngineSpec` entry instead of three if/elif chains.

Specs are split by what they need: GLA-family engines require the
preprocessed :class:`~repro.engine.resources.GlaResources` (the OAGs), the
demand-path baselines do not.  :func:`create_engine` enforces that split at
construction time.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.engine.base import ExecutionEngine
from repro.engine.chgraph_engine import ChGraphEngine
from repro.engine.gla_soft import SoftwareGlaEngine
from repro.engine.hygra import HygraEngine
from repro.engine.interleaved import InterleavedHygraEngine
from repro.engine.pull import PullHygraEngine
from repro.engine.resources import GlaResources

__all__ = ["EngineSpec", "ENGINE_REGISTRY", "engine_names", "create_engine"]


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """How to build one engine by name.

    ``factory`` takes ``GlaResources | None``; specs with
    ``needs_resources=False`` ignore the argument (and the harness skips
    the OAG preprocessing entirely for them).
    """

    name: str
    factory: Callable[[GlaResources | None], ExecutionEngine]
    needs_resources: bool
    description: str = ""


def _baseline_specs() -> list[EngineSpec]:
    # Deferred imports: repro.baselines imports engine submodules, so
    # importing it at repro.engine.registry module load from within
    # repro.engine.__init__ would be circular.
    from repro.baselines import EventPrefetcherEngine, HatsVEngine, LigraEngine

    return [
        EngineSpec(
            "Ligra",
            lambda resources: LigraEngine(),
            needs_resources=False,
            description="Ligra graph baseline (2-uniform inputs only)",
        ),
        EngineSpec(
            "EventPrefetcher",
            lambda resources: EventPrefetcherEngine(),
            needs_resources=False,
            description="event-driven programmable prefetcher baseline",
        ),
        EngineSpec(
            "HATS-V",
            lambda resources: HatsVEngine(resources),
            needs_resources=True,
            description="HATS hardware traversal scheduler, hypergraph variant",
        ),
    ]


def _registry() -> dict[str, EngineSpec]:
    specs = [
        EngineSpec(
            "Hygra",
            lambda resources: HygraEngine(),
            needs_resources=False,
            description="index-ordered software baseline",
        ),
        EngineSpec(
            "Hygra-pull",
            lambda resources: PullHygraEngine(),
            needs_resources=False,
            description="dense-gather (pull) direction ablation",
        ),
        EngineSpec(
            "Hygra-interleaved",
            lambda resources: InterleavedHygraEngine(),
            needs_resources=False,
            description="per-element round-robin core interleaving ablation",
        ),
        EngineSpec(
            "GLA",
            lambda resources: SoftwareGlaEngine(resources),
            needs_resources=True,
            description="chain-driven scheduling entirely in software",
        ),
        EngineSpec(
            "GLA-cached",
            lambda resources: SoftwareGlaEngine(resources, cache_dense_chains=True),
            needs_resources=True,
            description="ablation: software GLA reusing dense-algorithm chains",
        ),
        EngineSpec(
            "ChGraph",
            lambda resources: ChGraphEngine(resources),
            needs_resources=True,
            description="hardware-accelerated chain-driven engine (the paper)",
        ),
        EngineSpec(
            "ChGraph-uncached",
            lambda resources: ChGraphEngine(resources, cache_dense_chains=False),
            needs_resources=True,
            description="ablation: ChGraph regenerating dense-algorithm chains",
        ),
        EngineSpec(
            "ChGraph-HCGonly",
            lambda resources: ChGraphEngine(resources, use_hcg=True, use_cp=False),
            needs_resources=True,
            description="ablation: hardware chain generation, demand loads",
        ),
        EngineSpec(
            "ChGraph-CPonly",
            lambda resources: ChGraphEngine(resources, use_hcg=False, use_cp=True),
            needs_resources=True,
            description="ablation: software chains, hardware prefetch",
        ),
        *_baseline_specs(),
    ]
    return {spec.name: spec for spec in specs}


#: Name -> spec, in presentation order (paper engines first, then ablations
#: and baselines).
ENGINE_REGISTRY: dict[str, EngineSpec] = _registry()


def engine_names() -> tuple[str, ...]:
    """Every registered engine name, in registry order."""
    return tuple(ENGINE_REGISTRY)


def create_engine(
    name: str, resources: GlaResources | None = None
) -> ExecutionEngine:
    """Instantiate a registered engine by name.

    Raises ``KeyError`` for unknown names and ``ValueError`` when a
    GLA-family engine is requested without its resources.
    """
    try:
        spec = ENGINE_REGISTRY[name]
    except KeyError:
        known = ", ".join(engine_names())
        raise KeyError(f"unknown engine {name!r} (known: {known})") from None
    if spec.needs_resources and resources is None:
        raise ValueError(f"engine {name!r} requires GlaResources")
    return spec.factory(resources)
