"""Execution engines: Hygra baseline, software GLA, and ChGraph."""

from repro._exports import exports

__getattr__, __all__ = exports(__name__, {
    "ENGINE_REGISTRY": "registry",
    "PHASE_SPECS": "base",
    "ChGraphEngine": "chgraph_engine",
    "EngineSpec": "registry",
    "ExecutionEngine": "base",
    "GlaResources": "resources",
    "HygraEngine": "hygra",
    "InterleavedHygraEngine": "interleaved",
    "PullHygraEngine": "pull",
    "PhaseSpec": "base",
    "RunResult": "result",
    "SoftwareGlaEngine": "gla_soft",
    "create_engine": "registry",
    "engine_names": "registry",
})
