"""Cross-engine differential checking.

The twelve registry engines implement the same synchronous hyperedge/vertex
loop over the same algorithms; they may only differ in *scheduling* and
therefore in access counts and cycles — never in answers.  This harness
exploits that redundancy: it sweeps seeded generator hypergraphs across
every registry engine and asserts

- **result identity** — each engine's algorithm output matches the
  reference engine's (``np.allclose`` with ``equal_nan``, the established
  cross-engine standard: accumulation order differs under chain
  scheduling, so bit-equality of floats is too strong);
- **runtime invariants** — every run executes under an attached
  :class:`~repro.sim.invariants.InvariantChecker`, so the hierarchy's
  conservation laws are audited at each barrier along the way;
- **access-count sanity** — simulated runs must touch DRAM, and on
  overlap-heavy inputs (re-seeded full-scale paper presets) ChGraph's
  chain-driven schedule must not fetch *more* DRAM lines than Hygra's
  index order, the paper's headline ordering.

Engines that structurally cannot run an input (Ligra on non-2-uniform
hypergraphs) are recorded as skips, not failures.

:func:`inject_fault` deliberately breaks the hierarchy (reintroducing a
lost-writeback or a mis-attribution bug) so tests and the
``repro check --inject-fault`` smoke can prove the checker actually fires.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Iterator

import numpy as np

from repro.engine import RunResult
from repro.engine.registry import engine_names
from repro.errors import EngineError
from repro.harness.runner import Runner
from repro.hypergraph.generators import (
    AffiliationConfig,
    generate_affiliation_hypergraph,
    paper_dataset,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.sim.config import SystemConfig, scaled_config
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.invariants import InvariantChecker
from repro.sim.layout import ArrayId
from repro.sim.observe import InstrumentedSystem
from repro.sim.system import SimulatedSystem

__all__ = [
    "DifferentialReport",
    "FAULT_KINDS",
    "inject_fault",
    "overlap_heavy_graphs",
    "run_differential",
    "seeded_graphs",
]

#: Algorithms the differential sweep exercises by default.
DEFAULT_ALGORITHMS: tuple[str, ...] = ("PR", "BFS", "CC")

#: The reference engine results are compared against.
REFERENCE_ENGINE = "Hygra"


@dataclasses.dataclass
class DifferentialReport:
    """Outcome of one differential sweep."""

    runs: int = 0
    comparisons: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    violations: list[str] = dataclasses.field(default_factory=list)
    skipped: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"differential: {status} — {self.runs} runs, "
            f"{self.comparisons} comparisons, {len(self.failures)} failures, "
            f"{len(self.violations)} invariant violations, "
            f"{len(self.skipped)} skipped"
        )


def seeded_graphs(count: int = 5, base_seed: int = 101) -> list[Hypergraph]:
    """Small deterministic affiliation hypergraphs for identity checks."""
    graphs = []
    for i in range(count):
        config = AffiliationConfig(
            num_vertices=352,
            num_hyperedges=480,
            mean_hyperedge_degree=12.0,
            num_communities=12,
            overlap_bias=0.95,
            hubs_per_community=3,
            hub_bias=0.2,
            vertex_run=4,
            hyperedge_run=2,
            seed=base_seed + i,
        )
        graphs.append(
            generate_affiliation_hypergraph(config, name=f"diff-{base_seed + i}")
        )
    return graphs


def overlap_heavy_graphs(
    keys: tuple[str, ...] = ("OG", "WEB"), seeds: tuple[int, ...] = (1,)
) -> list[Hypergraph]:
    """Re-seeded full-scale paper presets for access-count ordering checks.

    Only the full-scale presets are overlap-heavy enough that the paper's
    ChGraph <= Hygra DRAM ordering is robust; small ad-hoc graphs can
    legitimately invert it (chunked chains lose their reuse window), so
    ordering is *not* asserted on :func:`seeded_graphs` outputs.
    """
    from repro.hypergraph.generators import _PAPER_PRESETS

    graphs = []
    for key in keys:
        for seed in seeds:
            preset = dataclasses.replace(_PAPER_PRESETS[key], seed=seed * 1000 + 7)
            graphs.append(
                generate_affiliation_hypergraph(preset, name=f"{key}-s{seed}")
            )
    return graphs


# -- fault injection ---------------------------------------------------------

FAULT_KINDS: tuple[str, ...] = ("lost-writeback", "skewed-attribution")


@contextlib.contextmanager
def inject_fault(kind: str) -> "Iterator[None]":
    """Deliberately break the hierarchy for the duration of the context.

    ``lost-writeback`` reintroduces silent write-traffic loss: dirty lines
    retire without being counted or reported.
    ``skewed-attribution`` drops the per-array attribution of every DRAM
    fetch while still counting the total, on the demand and the engine
    miss path alike (both end in ``MemoryHierarchy._l2_miss``).  Both must
    trip the :class:`~repro.sim.invariants.InvariantChecker`.
    """
    if kind == "lost-writeback":
        original = MemoryHierarchy._writeback_to_dram

        def broken(self, line: int) -> None:  # drop the writeback silently
            return None

        MemoryHierarchy._writeback_to_dram = broken  # type: ignore[method-assign]
        try:
            yield
        finally:
            MemoryHierarchy._writeback_to_dram = original  # type: ignore[method-assign]
    elif kind == "skewed-attribution":
        original_miss = MemoryHierarchy._l2_miss

        def skewed(
            self: MemoryHierarchy, core: int, array: ArrayId, line: int
        ) -> int:
            before = self.dram.accesses
            latency = original_miss(self, core, array, line)
            if self.dram.accesses != before:
                self.dram_by_array[array] -= 1  # un-attribute the fetch
            return latency

        MemoryHierarchy._l2_miss = skewed  # type: ignore[method-assign]
        try:
            yield
        finally:
            MemoryHierarchy._l2_miss = original_miss  # type: ignore[method-assign]
    else:
        raise ValueError(f"unknown fault kind {kind!r}; expected {FAULT_KINDS}")


# -- the sweep ---------------------------------------------------------------

def _checked_run(
    runner: Runner,
    engine_name: str,
    algorithm_name: str,
    hypergraph: Hypergraph,
    config: SystemConfig,
) -> "tuple[RunResult, list[str]]":
    """One simulated run with an invariant checker attached.

    Returns ``(result, violations)``; raises :class:`EngineError` when the
    engine structurally cannot process the input.
    """
    engine = runner.engine(engine_name, hypergraph, config)
    algorithm = runner.algorithm(algorithm_name)
    system = InstrumentedSystem(SimulatedSystem(config))
    checker = system.add_observer(InvariantChecker())
    result = engine.run(algorithm, hypergraph, system)
    return result, checker.violations()


def run_differential(
    engines: list[str] | None = None,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    graph_count: int = 5,
    base_seed: int = 101,
    config: SystemConfig | None = None,
    ordering: bool = True,
    pr_iterations: int = 2,
    log: "Callable[[str], None] | None" = None,
) -> DifferentialReport:
    """Sweep engines x algorithms x seeded graphs; return the findings."""
    if engines is None:
        engines = list(engine_names())
    if config is None:
        config = scaled_config(num_cores=4, llc_kb=2)
    emit = log if log is not None else (lambda message: None)
    runner = Runner(pr_iterations=pr_iterations, cache_dir=None)
    report = DifferentialReport()

    reference = REFERENCE_ENGINE if REFERENCE_ENGINE in engines else engines[0]
    for hypergraph in seeded_graphs(graph_count, base_seed):
        for algorithm in algorithms:
            emit(f"{hypergraph.name} / {algorithm}")
            runs = {}
            for engine_name in engines:
                try:
                    result, violations = _checked_run(
                        runner, engine_name, algorithm, hypergraph, config
                    )
                except EngineError as exc:
                    report.skipped.append(
                        f"{engine_name}/{algorithm}/{hypergraph.name}: {exc}"
                    )
                    continue
                report.runs += 1
                runs[engine_name] = result
                report.violations.extend(
                    f"{engine_name}/{algorithm}/{hypergraph.name}: {message}"
                    for message in violations
                )
                if result.dram_accesses <= 0:
                    report.failures.append(
                        f"{engine_name}/{algorithm}/{hypergraph.name}: "
                        f"simulated run made no DRAM accesses"
                    )
            base = runs.get(reference)
            if base is None:
                report.failures.append(
                    f"{algorithm}/{hypergraph.name}: reference engine "
                    f"{reference} produced no run"
                )
                continue
            for engine_name, result in runs.items():
                if engine_name == reference:
                    continue
                report.comparisons += 1
                if result.result.shape != base.result.shape or not np.allclose(
                    result.result, base.result, equal_nan=True
                ):
                    report.failures.append(
                        f"{engine_name}/{algorithm}/{hypergraph.name}: "
                        f"result diverges from {reference}"
                    )

    if ordering and "ChGraph" in engines and reference == "Hygra":
        for hypergraph in overlap_heavy_graphs():
            emit(f"{hypergraph.name} / PR ordering")
            counts = {}
            for engine_name in ("Hygra", "ChGraph"):
                result, violations = _checked_run(
                    runner, engine_name, "PR", hypergraph, config
                )
                report.runs += 1
                counts[engine_name] = result.dram_accesses
                report.violations.extend(
                    f"{engine_name}/PR/{hypergraph.name}: {message}"
                    for message in violations
                )
            report.comparisons += 1
            if counts["ChGraph"] > counts["Hygra"]:
                report.failures.append(
                    f"ordering/{hypergraph.name}: ChGraph DRAM "
                    f"({counts['ChGraph']}) > Hygra DRAM ({counts['Hygra']}) "
                    f"on an overlap-heavy input"
                )
    return report
