"""Shared harness fixtures: one reduced-scale runner whose memo every
figure test reuses."""

from __future__ import annotations

import pytest

from repro.harness.datasets import graph_dataset
from repro.harness.runner import Runner
from repro.hypergraph.generators import paper_dataset


class TinyRunner(Runner):
    """Routes the paper datasets to ~12%-scale stand-ins."""

    def __init__(self):
        super().__init__(pr_iterations=1)
        self._tiny = {}

    def dataset(self, key):
        if key in ("AZ", "PK"):
            return graph_dataset(key)
        if key not in self._tiny:
            self._tiny[key] = paper_dataset(key, scale=0.12)
        return self._tiny[key]


@pytest.fixture(scope="session")
def tiny_runner():
    """One :class:`TinyRunner` for the whole test run: figure tests that
    share runs pay for them once."""
    return TinyRunner()
