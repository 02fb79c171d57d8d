"""Simulated multi-core memory system (the paper's Table I substrate)."""

from repro.sim.config import SystemConfig, scaled_config, table1_config
from repro.sim.layout import ArrayId, MemoryLayout
from repro.sim.null import NullSystem
from repro.sim.observe import (
    InstrumentedSystem,
    IterationTimeline,
    Observer,
    PhaseProfiler,
    TraceObserver,
    instrument,
)
from repro.sim.protocol import EngineEvent, MemorySystem
from repro.sim.reuse import ReuseProfile, profile_stream
from repro.sim.system import SimulatedSystem
from repro.sim.telemetry import (
    IterationProfile,
    PhaseProfile,
    PhaseSample,
    RunTelemetry,
)

__all__ = [
    "ArrayId",
    "EngineEvent",
    "InstrumentedSystem",
    "IterationProfile",
    "IterationTimeline",
    "MemoryLayout",
    "MemorySystem",
    "NullSystem",
    "Observer",
    "PhaseProfile",
    "PhaseProfiler",
    "PhaseSample",
    "ReuseProfile",
    "RunTelemetry",
    "SimulatedSystem",
    "SystemConfig",
    "TraceObserver",
    "instrument",
    "profile_stream",
    "scaled_config",
    "table1_config",
]
