"""Deterministic retry jitter: the backoff schedule is pinned by seed.

The schedule exists to desynchronize concurrent clients retrying against
one wedged resource (a thundering herd); determinism-by-seed is what keeps
it testable and reproducible.
"""

from __future__ import annotations

import random

import pytest

from repro.store import backoff_delays
from repro.store.pool import DEFAULT_JITTER, run_tasks


class TestBackoffDelays:
    def test_schedule_is_pinned_by_seed(self):
        """The exact schedule for seed 42: attempt i sleeps
        backoff * 2**(i-1) * (1 + jitter * u_i)."""
        rng = random.Random(42)
        expected = [
            0.5 * 2 ** attempt * (1.0 + 0.25 * rng.random())
            for attempt in range(3)
        ]
        assert backoff_delays(3, 0.5, seed=42) == expected
        # Deterministic: the same seed always yields the same schedule.
        assert backoff_delays(3, 0.5, seed=42) == expected

    def test_different_seeds_desynchronize(self):
        assert backoff_delays(3, 0.5, seed=1) != backoff_delays(3, 0.5, seed=2)

    def test_zero_jitter_is_pure_exponential(self):
        assert backoff_delays(3, 0.5, jitter=0.0, seed=7) == [0.5, 1.0, 2.0]

    def test_delays_stay_within_the_jitter_band(self):
        for seed in range(20):
            for attempt, delay in enumerate(backoff_delays(4, 0.5, seed=seed)):
                base = 0.5 * 2 ** attempt
                assert base <= delay <= base * (1 + DEFAULT_JITTER)

    @pytest.mark.parametrize("retries, backoff", [(0, 0.5), (2, 0.0), (-1, 1.0)])
    def test_degenerate_inputs_sleep_zero(self, retries, backoff):
        delays = backoff_delays(retries, backoff, seed=3)
        assert delays == [0.0] * max(0, retries)


def _always_fail(payload):
    raise ValueError(f"injected failure for {payload}")


class TestRunTasksUsesTheSchedule:
    def test_retry_sleeps_follow_the_seeded_schedule(self, monkeypatch):
        import repro.store.pool as pool_mod

        slept = []
        monkeypatch.setattr(pool_mod.time, "sleep", slept.append)
        # After the pool retries, the inline fallback re-raises the error.
        with pytest.raises(ValueError, match="injected failure"):
            run_tasks(
                _always_fail,
                ["a", "b"],
                workers=2,
                retries=2,
                backoff=0.01,
                jitter_seed=123,
            )
        assert slept == backoff_delays(2, 0.01, seed=123)
