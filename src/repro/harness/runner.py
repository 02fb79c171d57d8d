"""The memoized experiment runner.

One (engine, algorithm, dataset, system-config) simulation takes seconds;
several figures share the same underlying runs (Fig 2/3/14/15/16/22 all need
Hygra/GLA/ChGraph on the same workloads).  The :class:`Runner` memoizes
``RunResult`` objects per key within the process so the whole benchmark
suite pays for each simulation once.

``REPRO_BENCH_FULL=1`` in the environment switches PageRank and Adsorption
from the quick 2-iteration default to the paper's 10 iterations; it changes
nothing else (dataset scale included).

Setting ``REPRO_CACHE_DIR`` (or passing ``cache_dir=``) additionally
persists both memo layers through the content-addressed
:mod:`repro.store`: ``GlaResources`` and ``RunResult`` artifacts then
survive the interpreter, so a second benchmark invocation skips all
preprocessing and simulation it has already paid for.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from repro.algorithms import (
    Adsorption,
    BetweennessCentrality,
    Bfs,
    ConnectedComponents,
    KCore,
    MaximalIndependentSet,
    PageRank,
    Sssp,
)
import dataclasses

import numpy as np

from repro.algorithms.base import HypergraphAlgorithm
from repro.engine import GlaResources, RunResult
from repro.engine.base import ExecutionEngine
from repro.engine.registry import ENGINE_REGISTRY, create_engine
from repro.harness.datasets import load_dataset
from repro.harness.spec import RunSpec
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.pipeline import (
    PipelineResult,
    PreprocessSpec,
    apply_pipeline,
)
from repro.sim.config import SystemConfig
from repro.sim.observe import (
    IterationTimeline,
    Observer,
    PhaseProfiler,
    instrument,
)
from repro.sim.system import SimulatedSystem

if TYPE_CHECKING:
    from repro.harness.parallel import ExecutionReport

__all__ = ["ALGORITHM_NAMES", "Runner", "get_runner", "PAPER_APPS"]

#: The six applications of the paper's evaluation, in its order.
PAPER_APPS: tuple[str, ...] = ("BFS", "PR", "MIS", "BC", "CC", "k-core")

#: Every algorithm :meth:`Runner.algorithm` can build — the single source
#: of truth for CLI/server request validation.
ALGORITHM_NAMES: tuple[str, ...] = (
    "BFS", "PR", "MIS", "BC", "CC", "k-core", "SSSP", "Adsorption",
)


def _full_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


def _unpermute_result(result: RunResult, vertex_perm: np.ndarray) -> RunResult:
    """Gather vertex-indexed result arrays back to original-id order.

    ``vertex_perm[old_id] = new_id``, so ``arr[vertex_perm]`` places the
    value the reordered run computed for original vertex ``old_id`` at
    index ``old_id`` — algorithm outputs stay id-stable no matter what
    renumbering the pipeline applied.  Only arrays of length
    ``num_vertices`` are vertex-indexed (``hyperedge_values`` is not, and
    scalar/other-shaped ``result`` payloads pass through untouched); value
    *domains* that reference vertex ids (e.g. CC component labels) are left
    in the reordered id space.
    """
    num_vertices = len(vertex_perm)

    def gather(arr: np.ndarray) -> np.ndarray:
        if isinstance(arr, np.ndarray) and arr.ndim == 1 and len(arr) == num_vertices:
            return arr[vertex_perm]
        return arr

    return dataclasses.replace(
        result,
        result=gather(result.result),
        vertex_values=gather(result.vertex_values),
    )


def _make_algorithm(name: str, pr_iterations: int) -> HypergraphAlgorithm:
    """A fresh algorithm instance; PR and Adsorption iterate ``pr_iterations``
    times."""
    factories: dict[str, Callable[[], HypergraphAlgorithm]] = {
        "BFS": Bfs,
        "PR": lambda: PageRank(iterations=pr_iterations),
        "MIS": MaximalIndependentSet,
        "BC": BetweennessCentrality,
        "CC": ConnectedComponents,
        "k-core": KCore,
        "SSSP": Sssp,
        "Adsorption": lambda: Adsorption(iterations=pr_iterations),
    }
    try:
        return factories[name]()
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}") from None


class Runner:
    """Builds engines/algorithms by name and memoizes simulation runs.

    ``cache_dir`` (or ``$REPRO_CACHE_DIR`` when it is ``None``) opts into
    the persistent artifact store: resources and run results are then
    loaded from / written to disk around the in-process memo, so repeated
    invocations across interpreters skip preprocessing and simulation.
    """

    def __init__(
        self,
        pr_iterations: int | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        if pr_iterations is None:
            pr_iterations = 10 if _full_mode() else 2
        self.pr_iterations = pr_iterations
        self._results: dict[RunSpec, RunResult] = {}
        self._resources: dict[tuple, GlaResources] = {}
        self._pipelines: dict[tuple, PipelineResult] = {}
        self._datasets: dict[str, Hypergraph] = {}
        from repro.store import ArtifactStore, resolve_cache_dir

        resolved = resolve_cache_dir(cache_dir)
        #: The persistent artifact store, or ``None`` when caching is off.
        self.store = ArtifactStore(resolved) if resolved is not None else None
        #: The last :meth:`run_many` execution report, if it executed any.
        self.last_execution_report: ExecutionReport | None = None

    def __reduce__(self) -> tuple[type["Runner"], tuple[int, Path | None]]:
        """Pickle as configuration only: a worker process unpickles a fresh
        runner of the same class over the same store, never this memo."""
        root = None if self.store is None else self.store.root
        return (type(self), (self.pr_iterations, root))

    # -- factories -----------------------------------------------------------

    def algorithm(self, name: str) -> HypergraphAlgorithm:
        """A fresh ``name``; PR and Adsorption run ``self.pr_iterations``."""
        return _make_algorithm(name, self.pr_iterations)

    def resources(
        self,
        hypergraph: Hypergraph,
        config: SystemConfig,
        preprocessing: PreprocessSpec | None = None,
    ) -> GlaResources:
        # The memo keys on the hypergraph *content* plus every build
        # parameter: name-keying would alias differently scaled variants of
        # one dataset, and dropping the preprocessing record would alias
        # runs configured with non-default preprocessing.
        if preprocessing is None:
            preprocessing = PreprocessSpec()
        key = (hypergraph.content_hash(), config.num_cores, preprocessing)
        if key not in self._resources:
            self._resources[key] = GlaResources.build_or_load(
                hypergraph,
                config.num_cores,
                store=self.store,
                preprocessing=preprocessing,
            )
        return self._resources[key]

    def engine(
        self,
        name: str,
        hypergraph: Hypergraph,
        config: SystemConfig,
        preprocessing: PreprocessSpec | None = None,
    ) -> ExecutionEngine:
        spec = ENGINE_REGISTRY.get(name)
        if spec is None:
            raise KeyError(f"unknown engine {name!r}")
        resources = (
            self.resources(hypergraph, config, preprocessing)
            if spec.needs_resources
            else None
        )
        return create_engine(name, resources)

    def pipeline(
        self, hypergraph: Hypergraph, preprocessing: PreprocessSpec
    ) -> PipelineResult:
        """Run (memoized) the preprocessing stage list on a loaded dataset."""
        key = (hypergraph.content_hash(), preprocessing.stages)
        if key not in self._pipelines:
            self._pipelines[key] = apply_pipeline(hypergraph, preprocessing)
        return self._pipelines[key]

    def dataset(self, key: str) -> Hypergraph:
        return load_dataset(key)

    def _dataset(self, key: str) -> Hypergraph:
        """:meth:`dataset`, resolved once per key: a run's store key and its
        simulation share one load."""
        if key not in self._datasets:
            self._datasets[key] = self.dataset(key)
        return self._datasets[key]

    # -- memoized execution ------------------------------------------------------

    def run(
        self, spec: RunSpec, profile: bool = False, check: bool = False
    ) -> RunResult:
        """Simulate (memoized) a :class:`~repro.harness.spec.RunSpec` and
        return the :class:`RunResult`.

        The ``profile``/``check`` keywords act as sticky overrides on a spec
        that did not set them itself.  ``profile=True`` runs the simulation
        under an :class:`~repro.sim.observe.InstrumentedSystem` so the result
        carries :class:`~repro.sim.telemetry.RunTelemetry`; the simulated
        cycles and DRAM counts are identical to an unprofiled run, but the
        entries are memoized (and stored) separately because only one
        carries telemetry.

        ``check=True`` additionally attaches an
        :class:`~repro.sim.invariants.InvariantChecker` (implying
        instrumentation); any violations land on
        ``result.telemetry.violations``.  Checked runs bypass the persistent
        store — the whole point of checking is to re-execute the simulation,
        and a store hit would silently skip the audit.
        """
        return self._run_spec(
            spec.normalized(
                pr_iterations=self.pr_iterations, profile=profile, check=check
            )
        )

    def _cached(self, spec: RunSpec) -> RunResult | None:
        """The memoized or stored result of a normalized spec, if any.

        Checked runs never come from the store: checking means executing
        the simulation under the checker, and a hit would skip the audit.
        """
        # RunSpec is frozen and fully resolved here, hence hashable: keying
        # on the whole spec keeps modified configs and preprocessing
        # pipelines distinct.
        if spec in self._results:
            return self._results[spec]
        if self.store is None or spec.check:
            return None
        cached = self.store.get_run_result(self._store_key(spec))
        if cached is not None:
            self._results[spec] = cached
        return cached

    def _store_key(self, spec: RunSpec) -> str:
        from repro.store import run_result_key

        # Keys hash the *loaded* dataset's content plus the spec's full
        # preprocessing record — the stage list is part of the key, so the
        # pipeline only runs on a genuine miss.
        return run_result_key(spec, self._dataset(spec.dataset).content_hash())

    def _run_spec(self, spec: RunSpec) -> RunResult:
        """Execute one fully-normalized spec (the memo and store unit)."""
        cached = self._cached(spec)
        if cached is not None:
            return cached
        hypergraph = self._dataset(spec.dataset)
        preprocessing = spec.resolved_preprocessing()
        pipeline = self.pipeline(hypergraph, preprocessing)
        engine = self.engine(
            spec.engine, pipeline.hypergraph, spec.config, preprocessing
        )
        # The spec's own iteration count: it is what the store key hashes.
        assert spec.pr_iterations is not None
        algorithm = _make_algorithm(spec.algorithm, spec.pr_iterations)
        observers: list[Observer] = []
        if spec.profile:
            observers += [PhaseProfiler(), IterationTimeline()]
        if spec.check:
            from repro.sim.invariants import InvariantChecker

            observers.append(InvariantChecker())
        # instrument() hands back the bare system when no observer is
        # attached, so unprofiled runs skip the middleware dispatch.
        simulated = SimulatedSystem(spec.config)
        system = instrument(simulated, observers)
        result = engine.run(algorithm, pipeline.hypergraph, system)
        result.energy = simulated.energy()
        directory = simulated.hierarchy.coherence
        if directory is not None:
            directory.check_invariants()
            result.coherence = dataclasses.replace(directory.stats)
        if pipeline.vertex_perm is not None:
            result = _unpermute_result(result, pipeline.vertex_perm)
        self._results[spec] = result
        if self.store is not None and not spec.check:
            self.store.put_run_result(self._store_key(spec), result)
        return result

    def run_many(
        self,
        specs: Iterable[RunSpec],
        jobs: int | None = None,
        timeout: float | None = None,
        retries: int = 2,
        profile: bool = False,
        check: bool = False,
    ) -> dict[RunSpec, RunResult]:
        """Batch :meth:`run`: execute a whole run matrix, sharded in parallel.

        Memo and store hits are answered here.  The misses go to
        :func:`~repro.harness.parallel.execute_runs`, which shards them
        across up to ``jobs`` worker processes (``timeout`` seconds per run)
        and hands every result back by value; they are memoized like any
        other run.  A run that a worker failed is re-run here, inline and
        untimed, so a deterministic error surfaces as its original
        exception.

        Returns ``{spec: RunResult}`` keyed by the specs as given; the
        executor's :class:`~repro.harness.parallel.ExecutionReport` (or
        ``None`` when every spec was a hit) is left on
        :attr:`last_execution_report`.
        """
        from repro.harness.parallel import execute_runs

        resolved = {
            spec: spec.normalized(
                pr_iterations=self.pr_iterations, profile=profile, check=check
            )
            for spec in specs
        }
        misses = [
            run for run in dict.fromkeys(resolved.values())
            if self._cached(run) is None
        ]
        self.last_execution_report = None
        if misses:
            report = execute_runs(
                misses, self, jobs=jobs, timeout=timeout, retries=retries
            )
            self.last_execution_report = report
            for run_report in report.reports:
                if run_report.result is not None:
                    self._results[run_report.spec] = run_report.result
        return {spec: self._run_spec(run) for spec, run in resolved.items()}


_runners: dict[tuple, Runner] = {}


def _environment_key() -> tuple:
    """What the shared runner's construction read from the environment."""
    from repro.store import resolve_cache_dir

    cache = resolve_cache_dir(None)
    return (None if cache is None else str(cache), _full_mode())


def get_runner() -> Runner:
    """The process-wide shared runner (benchmarks reuse its memo cache).

    Keyed on the resolved environment (``$REPRO_CACHE_DIR``,
    ``$REPRO_BENCH_FULL``): changing either after the first call yields a
    runner matching the *current* environment instead of silently reusing
    the first-constructed one.  Repeated calls under one environment keep
    returning the same instance, preserving its memo caches.
    """
    key = _environment_key()
    runner = _runners.get(key)
    if runner is None:
        runner = _runners[key] = Runner()
    return runner
