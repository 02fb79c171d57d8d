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
persists the datasets and both memo layers through the content-addressed
:mod:`repro.store`: dataset, ``GlaResources`` and ``RunResult`` artifacts
then survive the interpreter, so a second benchmark invocation skips all
generation, preprocessing and simulation it has already paid for, and
imports no simulator module.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.engine.registry import ENGINE_REGISTRY, create_engine
from repro.engine.resources import GlaResources
from repro.engine.result import RunResult
from repro.harness.datasets import load_dataset
from repro.harness.spec import RunSpec
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.pipeline import (
    PipelineResult,
    PreprocessSpec,
    apply_pipeline,
)
from repro.sim.config import SystemConfig
from repro.store.keys import run_result_key
from repro.store.store import ArtifactStore, resolve_cache_dir

if TYPE_CHECKING:
    from repro.algorithms.base import HypergraphAlgorithm
    from repro.engine.base import ExecutionEngine
    from repro.harness.parallel import ExecutionReport

__all__ = ["ALGORITHM_NAMES", "Runner", "get_runner", "PAPER_APPS"]

#: The six applications of the paper's evaluation, in its order.
PAPER_APPS: tuple[str, ...] = ("BFS", "PR", "MIS", "BC", "CC", "k-core")

#: Every algorithm :meth:`Runner.algorithm` can build, by name: its class
#: in :mod:`repro.algorithms`, imported on the first build.
_ALGORITHMS: dict[str, str] = {
    "BFS": "Bfs",
    "PR": "PageRank",
    "MIS": "MaximalIndependentSet",
    "BC": "BetweennessCentrality",
    "CC": "ConnectedComponents",
    "k-core": "KCore",
    "SSSP": "Sssp",
    "Adsorption": "Adsorption",
}

#: The algorithms that iterate the run's ``pr_iterations`` times.
_ITERATED = frozenset({"PR", "Adsorption"})

#: The single source of truth for CLI/server request validation.
ALGORITHM_NAMES: tuple[str, ...] = tuple(_ALGORITHMS)


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
    if name not in _ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}")
    import repro.algorithms

    build: Callable[..., HypergraphAlgorithm] = getattr(
        repro.algorithms, _ALGORITHMS[name]
    )
    return build(iterations=pr_iterations) if name in _ITERATED else build()


class Runner:
    """Builds engines/algorithms by name and memoizes simulation runs.

    ``cache_dir`` (or ``$REPRO_CACHE_DIR`` when it is ``None``) opts into
    the persistent artifact store: datasets, resources and run results are
    then loaded from / written to disk around the in-process memo, so
    repeated invocations across interpreters skip generation,
    preprocessing and simulation.
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
        # The service keys requests on several threads with one runner.
        self._dataset_lock = threading.Lock()
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

    def __copy__(self) -> Runner:
        """A fresh runner over the same store (:meth:`__reduce__`) that
        shares this one's loaded datasets and their lock: each service
        batch computes on one, so it reads no dataset the service has
        loaded, and its own memos go with it."""
        make, args = self.__reduce__()
        twin = make(*args)
        twin._datasets, twin._dataset_lock = self._datasets, self._dataset_lock
        return twin

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
        """The harness dataset ``key``, through the runner's store when it
        has one (:func:`~repro.harness.datasets.load_dataset`)."""
        return load_dataset(key, self.store)

    def _dataset(self, key: str) -> Hypergraph:
        """:meth:`dataset`, resolved once per key: a run's store key, its
        simulation and the figure reducers share one load (and one store
        lookup), also when threads key runs at once.  Only a first load
        takes the lock, so the service's event loop, whose lookups find
        their dataset loaded, never waits on another request's load."""
        if key not in self._datasets:
            with self._dataset_lock:
                if key not in self._datasets:
                    self._datasets[key] = self.dataset(key)
        return self._datasets[key]

    # -- memoized execution ------------------------------------------------------

    def run(
        self, spec: RunSpec, profile: bool = False, check: bool = False
    ) -> RunResult:
        """Simulate (memoized) a :class:`~repro.harness.spec.RunSpec` and
        return the :class:`RunResult`: :meth:`lookup`, else :meth:`compute`.

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
        run = spec.normalized(
            pr_iterations=self.pr_iterations, profile=profile, check=check
        )
        result = self.lookup(run)
        return result if result is not None else self.compute(run)

    # key/lookup/compute take a normalized spec (RunSpec.normalized): the
    # unit the memo and the store key on, hashable because it is frozen.

    def key(self, spec: RunSpec) -> str:
        """The store key of a run: its spec, preprocessing record included
        (so keying never runs the pipeline), and the content of its dataset
        as loaded, through this runner's store and once per runner."""
        return run_result_key(spec, self._dataset(spec.dataset).content_hash())

    def lookup(self, spec: RunSpec) -> RunResult | None:
        """The memoized, else the stored, result of a run, if any.

        Checked runs never come from the store: checking means executing
        the simulation under the checker, and a hit would skip the audit.
        A store hit is returned, not memoized, so the memo holds only what
        this runner or its workers computed.
        """
        result = self._results.get(spec)
        if result is None and self.store is not None and not spec.check:
            result = self.store.get_run_result(self.key(spec))
        return result

    def compute(self, spec: RunSpec) -> RunResult:
        """Simulate a run, memoize its result and, unless it is checked,
        store it.  It never looks the run up: its callers have."""
        # Imported only here, where a run is simulated.
        from repro.sim.observe import (
            IterationTimeline,
            Observer,
            PhaseProfiler,
            instrument,
        )
        from repro.sim.system import SimulatedSystem

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
            self.store.put_run_result(self.key(spec), result)
        return result

    def run_many(
        self,
        specs: Iterable[RunSpec],
        jobs: int | None = None,
        timeout: float | None = None,
        profile: bool = False,
        check: bool = False,
    ) -> dict[RunSpec, RunResult]:
        """Batch :meth:`run`: execute a whole run matrix, sharded in parallel.

        Each distinct run is looked up once.  The misses go to
        :func:`~repro.harness.parallel.execute_runs`, which shards them
        across up to ``jobs`` worker processes (``timeout`` seconds per
        run), computes each shard on a copy of this runner (a one-shard
        plan on this runner itself) and hands every result back by value;
        they are memoized like any other computed run.  A run that failed,
        in its worker or with the worker it was lost with, is computed
        here, inline and untimed, so a deterministic error surfaces as its
        original exception.

        Returns ``{spec: RunResult}`` keyed by the specs as given; the
        executor's :class:`~repro.harness.parallel.ExecutionReport` (or
        ``None`` when every spec was a hit) is left on
        :attr:`last_execution_report`.
        """
        resolved = {
            spec: spec.normalized(
                pr_iterations=self.pr_iterations, profile=profile, check=check
            )
            for spec in specs
        }
        runs = dict.fromkeys(resolved.values())
        results = {
            run: hit for run in runs if (hit := self.lookup(run)) is not None
        }
        misses = [run for run in runs if run not in results]
        self.last_execution_report = None
        if misses:
            from repro.harness.parallel import execute_runs

            report = execute_runs(misses, self, jobs=jobs, timeout=timeout)
            self.last_execution_report = report
            for miss in report.reports:
                results[miss.spec] = (
                    self.compute(miss.spec)
                    if miss.result is None
                    # A worker's result joins the memo; an inline one is in it.
                    else self._results.setdefault(miss.spec, miss.result)
                )
        return {spec: results[run] for spec, run in resolved.items()}


_runners: dict[tuple, Runner] = {}


def _environment_key() -> tuple:
    """What the shared runner's construction read from the environment."""
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
