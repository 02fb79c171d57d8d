"""The built-in probe suite: one timed thunk per perf-bearing layer.

Each probe exercises a hot path end to end, sized so the whole suite
stays in CI-smoke territory:

- ``oag-build-fast`` — vectorized OAG construction (the PR 1 tentpole);
- ``chain-generation`` — probe-free chain generation over the H-OAG;
- ``store-warm-load`` — a verified warm ``GlaResources`` load from a
  prewarmed artifact store (the PR 2 tentpole);
- ``run-many-jobs2`` — a cold two-run matrix through the sharded
  parallel executor (the PR 3 tentpole), fresh store per repetition;
- ``serve-roundtrip`` — submit→result latency against a live service
  answering from the store fast path (the PR 6 tentpole);
- ``reorder-stage`` — the ``locality_reorder`` transform backing the
  ``locality-reorder`` pipeline stage (the PR 9 tentpole's hot new code);
- ``sim-inner-loop`` — the ChGraph engine inner loop on a seeded
  affiliation hypergraph (the simulator core every figure rests on);
- ``hierarchy-access`` — a seeded demand/engine access mix against the
  raw ``MemoryHierarchy`` (the PR 10 tentpole's O(1) cache core and
  batched access paths, isolated from engine overhead).

Setup (dataset builds, prewarming, service boot) runs outside the timed
region; probes that hold a temp store or a live service return a cleanup.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np

from repro.benchmark.registry import bench
from repro.core.chain import ChainGenerator
from repro.core.oag import build_oag
from repro.engine.resources import GlaResources
from repro.engine.registry import create_engine
from repro.harness.differential import seeded_graphs
from repro.harness.spec import RunSpec
from repro.hypergraph.generators import paper_dataset
from repro.sim.config import scaled_config
from repro.sim.system import SimulatedSystem
from repro.store.store import ArtifactStore

__all__: list[str] = []

#: The scaled-down simulation shape shared by the heavier probes (matches
#: the CI smoke workloads: 4 cores, 2 KB LLC).
_SMALL_CORES = 4
_SMALL_LLC_KB = 2


@bench(
    "oag-build-fast",
    "Vectorized H-OAG build on the OK dataset (build_oag fast path)",
)
def _oag_build_fast():
    hypergraph = paper_dataset("OK")
    return lambda: build_oag(hypergraph, "hyperedge")


@bench(
    "chain-generation",
    "Probe-free chain generation over the OK H-OAG, all nodes active",
)
def _chain_generation():
    hypergraph = paper_dataset("OK")
    oag = build_oag(hypergraph, "hyperedge")
    active = np.ones(oag.num_nodes, dtype=bool)
    generator = ChainGenerator()
    return lambda: generator.generate(active, oag)


@bench(
    "store-warm-load",
    "Warm GlaResources load (checksum-verified npz) from a prewarmed store",
)
def _store_warm_load():
    hypergraph = paper_dataset("OK")
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    store = ArtifactStore(root)
    GlaResources.build_or_load(hypergraph, 16, store=store)  # prewarm

    def thunk():
        return GlaResources.build_or_load(hypergraph, 16, store=store)

    return thunk, lambda: shutil.rmtree(root, ignore_errors=True)


@bench(
    "run-many-jobs2",
    "Cold 2-run matrix through the sharded parallel executor (--jobs 2)",
)
def _run_many_jobs2():
    from repro.harness.runner import Runner
    from repro.harness.spec import RunSpec

    config = scaled_config(num_cores=_SMALL_CORES, llc_kb=_SMALL_LLC_KB)
    specs = [
        RunSpec("Hygra", "PR", "OG", config),
        RunSpec("Hygra", "BFS", "FS", config),
    ]
    roots: list[str] = []

    def thunk():
        # A fresh store per repetition keeps every execution cold — a warm
        # hit would measure the store, not the executor.
        root = tempfile.mkdtemp(prefix="repro-bench-runmany-")
        roots.append(root)
        runner = Runner(pr_iterations=1, cache_dir=root)
        return runner.run_many(specs, jobs=2, timeout=600)

    def cleanup():
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)

    return thunk, cleanup


@bench(
    "serve-roundtrip",
    "Service submit→result latency on the store fast path (repro serve)",
)
def _serve_roundtrip():
    import asyncio
    import threading

    from repro.service import (
        JobRequest,
        SchedulerConfig,
        ServiceClient,
        ServiceConfig,
        SimulationService,
    )

    root = tempfile.mkdtemp(prefix="repro-bench-serve-")
    service = SimulationService(
        ServiceConfig(
            port=0,
            cache_dir=root,
            scheduler=SchedulerConfig(batch_window=0.01),
        ),
        log=None,
    )
    ready = threading.Event()

    def body() -> None:
        async def _main() -> None:
            task = asyncio.create_task(service.run(install_signals=False))
            while service.port is None:
                await asyncio.sleep(0.005)
            ready.set()
            await task

        asyncio.run(_main())

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    if not ready.wait(30):
        raise RuntimeError("bench service failed to start")
    client = ServiceClient(port=service.port)
    request = JobRequest(
        RunSpec(
            "Hygra", "BFS", "FS",
            config=scaled_config(num_cores=_SMALL_CORES, llc_kb=_SMALL_LLC_KB),
            pr_iterations=1,
        )
    )
    # Pay the one real simulation during setup so every timed round trip
    # is answered from the store fast path — the serving overhead itself.
    client.run(request, timeout=600)

    def cleanup() -> None:
        service.request_drain()
        thread.join(60)
        shutil.rmtree(root, ignore_errors=True)

    return (lambda: client.run(request, timeout=600)), cleanup


@bench(
    "reorder-stage",
    "locality_reorder (BFS renumbering + CSR rebuild) on a seeded hypergraph",
)
def _reorder_stage():
    from repro.hypergraph.reorder import locality_reorder

    hypergraph = seeded_graphs(1)[0]
    return lambda: locality_reorder(hypergraph)


@bench(
    "sim-inner-loop",
    "ChGraph engine PR inner loop on a seeded affiliation hypergraph",
)
def _sim_inner_loop():
    from repro.algorithms import PageRank

    hypergraph = seeded_graphs(1)[0]
    config = scaled_config(num_cores=_SMALL_CORES, llc_kb=_SMALL_LLC_KB)
    resources = GlaResources.build_or_load(hypergraph, config.num_cores)

    def thunk():
        # Fresh engine + system per repetition: engines carry run state.
        engine = create_engine("ChGraph", resources)
        system = SimulatedSystem(config)
        return engine.run(PageRank(iterations=2), hypergraph, system)

    return thunk


@bench(
    "hierarchy-access",
    "Seeded demand/engine access mix against the raw MemoryHierarchy",
)
def _hierarchy_access():
    import random

    from repro.sim.hierarchy import MemoryHierarchy
    from repro.sim.layout import ArrayId

    config = scaled_config(num_cores=_SMALL_CORES, llc_kb=_SMALL_LLC_KB)
    # A fixed op tape (seeded, built once in setup) replayed against a
    # fresh hierarchy each repetition: the mix of demand reads and writes,
    # offsets-pair fetches and engine accesses the engines issue through
    # their bound ports, without any engine bookkeeping in the timed
    # region.  The tape still draws a block length per op, so it stays the
    # same tape; pairs use two elements of it.
    rng = random.Random(0x5EED)
    arrays = [
        ArrayId.VERTEX_VALUE,
        ArrayId.HYPEREDGE_VALUE,
        ArrayId.INCIDENT_VERTEX,
        ArrayId.BITMAP,
    ]
    tape = []
    for _ in range(20_000):
        op = rng.randrange(6)
        core = rng.randrange(_SMALL_CORES)
        array = arrays[rng.randrange(len(arrays))]
        index = rng.randrange(4096)
        count = rng.randrange(1, 17)
        tape.append((op, core, array, index, count))
    # op -> (channel, accesses): a demand read, a demand write, a demand
    # write pair, an engine access, an engine pair, an engine access.
    ops = [
        ("read", 1), ("write", 1), ("write", 2),
        ("engine", 1), ("engine", 2), ("engine", 1),
    ]

    def thunk():
        hierarchy = MemoryHierarchy(config)
        ports = {}
        total = 0
        for op, core, array, index, _ in tape:
            channel, accesses = ops[op]
            key = (core, array, channel)
            port = ports.get(key)
            if port is None:
                port = ports[key] = hierarchy.port(core, array, channel)
            total += port(index)
            if accesses == 2:
                total += port(index + 1)
        return total

    return thunk
