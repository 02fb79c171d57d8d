"""Tests for Table I and scaled system configurations."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import SystemConfig, scaled_config, table1_config


def test_table1_matches_paper():
    config = table1_config()
    assert config.num_cores == 16
    assert config.frequency_ghz == 2.2
    assert config.l1_size == 32 * 1024 and config.l1_assoc == 8
    assert config.l1_latency == 3
    assert config.l2_size == 128 * 1024 and config.l2_latency == 6
    assert config.l3_size == 32 * 1024 * 1024
    assert config.l3_banks == 16 and config.l3_latency == 24
    assert config.inclusive_l3 is True
    assert config.dram_controllers == 4
    assert config.dram_gbps_per_controller == 12.8
    assert config.line_size == 64


def test_scaled_config_regime():
    config = scaled_config()
    assert config.num_cores == 16
    assert config.l3_size < table1_config().l3_size
    assert config.inclusive_l3 is False
    # The scaled LLC is deliberately smaller than an L2: the regime is
    # "working set >> LLC", and non-inclusion makes that coherent.
    assert config.l1_size < config.l2_size
    assert config.l3_size < config.l2_size * config.num_cores


def test_scaled_config_parametrized():
    config = scaled_config(num_cores=4, llc_kb=16)
    assert config.num_cores == 4
    assert config.l3_size == 16 * 1024


def test_replace_returns_new_config():
    config = table1_config()
    other = config.replace(num_cores=8)
    assert other.num_cores == 8
    assert config.num_cores == 16


def test_invalid_core_count():
    with pytest.raises(ConfigurationError):
        SystemConfig(name="bad", num_cores=0)


def test_cache_smaller_than_line_rejected():
    with pytest.raises(ConfigurationError):
        SystemConfig(name="bad", l1_size=32)


@pytest.mark.parametrize(
    "changes, match",
    [
        ({"num_cores": 2.5}, "num_cores must be int"),
        ({"l1_assoc": 0}, "l1_assoc must be finite and > 0"),
        ({"l2_latency": -5}, "l2_latency must be finite and >= 0"),
        ({"mlp": float("inf")}, "mlp must be finite"),
        ({"line_size": 48}, "line_size must be a power of two"),
        ({"l1_size": 1000}, "l1_size=1000 is not a multiple"),
    ],
    ids=["type", "positive", "non-negative", "finite", "power-of-two", "divisible"],
)
def test_field_checks(changes, match):
    with pytest.raises(ConfigurationError, match=match):
        scaled_config().replace(**changes)


def test_an_int_is_a_float_but_a_bool_is_no_number():
    assert scaled_config().replace(mlp=3).mlp == 3
    with pytest.raises(ConfigurationError, match="num_cores must be int"):
        scaled_config().replace(num_cores=True)
    with pytest.raises(ConfigurationError, match="track_coherence must be bool"):
        scaled_config().replace(track_coherence=1)


def test_dram_bytes_per_cycle():
    config = table1_config()
    assert config.dram_bytes_per_cycle_per_controller == pytest.approx(12.8 / 2.2)
