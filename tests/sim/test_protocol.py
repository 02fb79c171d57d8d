"""Protocol conformance: every shipped system satisfies MemorySystem."""

from __future__ import annotations

import pytest

from repro.sim import (
    InstrumentedSystem,
    MemorySystem,
    NullSystem,
    SimulatedSystem,
    scaled_config,
)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: NullSystem(),
        lambda: SimulatedSystem(scaled_config(num_cores=2, llc_kb=2)),
        lambda: InstrumentedSystem(NullSystem()),
        lambda: InstrumentedSystem.profiled(
            SimulatedSystem(scaled_config(num_cores=2, llc_kb=2))
        ),
    ],
    ids=["null", "simulated", "instrumented-null", "instrumented-sim"],
)
def test_shipped_systems_conform(factory) -> None:
    assert isinstance(factory(), MemorySystem)


def test_partial_implementations_do_not_conform() -> None:
    class PortOnly:
        def port(self, core, array, channel):
            return lambda index: 0

    assert not isinstance(PortOnly(), MemorySystem)
    assert not isinstance(object(), MemorySystem)


def test_protocol_members_cover_the_charging_interface() -> None:
    # The boundary every engine is written against: if a member vanishes
    # from the protocol, engines could call a method some system lacks.
    for member in (
        "port", "charge_compute", "charge_compute_run", "charge_engine",
        "barrier", "on_event",
        "dram_accesses", "dram_breakdown",
    ):
        assert callable(getattr(NullSystem(), member))
        assert callable(
            getattr(SimulatedSystem(scaled_config(num_cores=2)), member)
        )
