"""Simulated multi-core memory system (the paper's Table I substrate)."""

from repro._exports import exports

__getattr__, __all__ = exports(__name__, {
    "ArrayId": "layout",
    "EngineEvent": "protocol",
    "InstrumentedSystem": "observe",
    "IterationProfile": "telemetry",
    "IterationTimeline": "observe",
    "MemoryLayout": "layout",
    "MemorySystem": "protocol",
    "NullSystem": "null",
    "Observer": "observe",
    "PhaseProfile": "telemetry",
    "PhaseProfiler": "observe",
    "PhaseSample": "telemetry",
    "ReuseProfile": "reuse",
    "RunTelemetry": "telemetry",
    "SimulatedSystem": "system",
    "SystemConfig": "config",
    "TraceObserver": "observe",
    "instrument": "observe",
    "profile_stream": "reuse",
    "scaled_config": "config",
    "table1_config": "config",
})
