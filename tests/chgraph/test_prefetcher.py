"""Tests for the chain-driven prefetcher cost model."""

from __future__ import annotations

import pytest

from repro.chgraph.prefetcher import CpCost


def test_engine_cycles_formula():
    cost = CpCost(beats=10, overlapped_latency=80.0)
    assert cost.engine_cycles(stage_cycles=2.0, engine_mlp=8.0) == pytest.approx(30.0)
