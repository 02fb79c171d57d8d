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
import importlib
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.engine.base import ExecutionEngine
    from repro.engine.resources import GlaResources

__all__ = [
    "EngineSpec", "ENGINE_REGISTRY", "engine_names", "create_engine",
    "import_engines",
]


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """How to build one engine by name.

    ``engine`` names its class as ``"<module>.<Class>"`` under ``repro``;
    the module is imported on the first build, so importing the registry
    loads no engine.  A spec with ``needs_resources`` passes its
    ``GlaResources`` to the class first; the others take no resources (and
    the harness skips the OAG preprocessing entirely for them).
    ``options`` are the keyword switches the class is built with.
    """

    name: str
    engine: str
    needs_resources: bool
    description: str = ""
    options: dict[str, bool] = dataclasses.field(default_factory=dict, hash=False)

    def engine_class(self) -> Callable[..., ExecutionEngine]:
        """The engine class, imported on first use."""
        module, _, name = self.engine.rpartition(".")
        engine_class: Callable[..., ExecutionEngine] = getattr(
            importlib.import_module(f"repro.{module}"), name
        )
        return engine_class

    def build(self, resources: GlaResources | None) -> ExecutionEngine:
        """A new engine; ``resources`` is ignored unless it needs them."""
        args = (resources,) if self.needs_resources else ()
        return self.engine_class()(*args, **self.options)


def _registry() -> dict[str, EngineSpec]:
    specs = [
        EngineSpec(
            "Hygra", "engine.hygra.HygraEngine", needs_resources=False,
            description="index-ordered software baseline",
        ),
        EngineSpec(
            "Hygra-pull", "engine.pull.PullHygraEngine", needs_resources=False,
            description="dense-gather (pull) direction ablation",
        ),
        EngineSpec(
            "Hygra-interleaved", "engine.interleaved.InterleavedHygraEngine",
            needs_resources=False,
            description="per-element round-robin core interleaving ablation",
        ),
        EngineSpec(
            "GLA", "engine.gla_soft.SoftwareGlaEngine", needs_resources=True,
            description="chain-driven scheduling entirely in software",
        ),
        EngineSpec(
            "GLA-cached", "engine.gla_soft.SoftwareGlaEngine",
            needs_resources=True,
            description="ablation: software GLA reusing dense-algorithm chains",
            options={"cache_dense_chains": True},
        ),
        EngineSpec(
            "ChGraph", "engine.chgraph_engine.ChGraphEngine",
            needs_resources=True,
            description="hardware-accelerated chain-driven engine (the paper)",
        ),
        EngineSpec(
            "ChGraph-uncached", "engine.chgraph_engine.ChGraphEngine",
            needs_resources=True,
            description="ablation: ChGraph regenerating dense-algorithm chains",
            options={"cache_dense_chains": False},
        ),
        EngineSpec(
            "ChGraph-HCGonly", "engine.chgraph_engine.ChGraphEngine",
            needs_resources=True,
            description="ablation: hardware chain generation, demand loads",
            options={"use_hcg": True, "use_cp": False},
        ),
        EngineSpec(
            "ChGraph-CPonly", "engine.chgraph_engine.ChGraphEngine",
            needs_resources=True,
            description="ablation: software chains, hardware prefetch",
            options={"use_hcg": False, "use_cp": True},
        ),
        EngineSpec(
            "Ligra", "baselines.ligra.LigraEngine", needs_resources=False,
            description="Ligra graph baseline (2-uniform inputs only)",
        ),
        EngineSpec(
            "EventPrefetcher", "baselines.prefetcher_ev.EventPrefetcherEngine",
            needs_resources=False,
            description="event-driven programmable prefetcher baseline",
        ),
        EngineSpec(
            "HATS-V", "baselines.hats.HatsVEngine", needs_resources=True,
            description="HATS hardware traversal scheduler, hypergraph variant",
        ),
    ]
    return {spec.name: spec for spec in specs}


#: Name -> spec, in presentation order (paper engines first, then ablations
#: and baselines).
ENGINE_REGISTRY: dict[str, EngineSpec] = _registry()


def engine_names() -> tuple[str, ...]:
    """Every registered engine name, in registry order."""
    return tuple(ENGINE_REGISTRY)


def import_engines() -> None:
    """Import every registered engine class (and with them the simulator
    they drive), as a process about to fork workers does so that each
    worker inherits them instead of importing them itself."""
    for spec in ENGINE_REGISTRY.values():
        spec.engine_class()


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
    return spec.build(resources)
