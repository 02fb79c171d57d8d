#!/usr/bin/env python3
"""Quickstart: run PageRank under Hygra, software GLA, and ChGraph.

Reproduces the paper's headline comparison in miniature: build a Web-trackers
style hypergraph, run hypergraph PageRank on the simulated 16-core system
under each scheduler, and report speedups and DRAM-access reductions.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import ChGraphEngine, GlaResources, HygraEngine, PageRank, SoftwareGlaEngine
from repro.harness.report import render_table
from repro.hypergraph.generators import paper_dataset
from repro.sim import SimulatedSystem, scaled_config


def main() -> None:
    # 1. A hypergraph.  `paper_dataset` builds the scaled Table II stand-ins;
    #    any Hypergraph built via Hypergraph.from_hyperedge_lists works too.
    hypergraph = paper_dataset("WEB")
    print(f"dataset: {hypergraph}\n")

    # 2. The simulated system (Table I, scaled) and the GLA preprocessing
    #    artifacts (per-chunk overlap-aware abstraction graphs).
    config = scaled_config()
    start = time.perf_counter()
    resources = GlaResources.build(hypergraph, config.num_cores)
    build_seconds = time.perf_counter() - start
    print(
        f"preprocessing: built {len(resources.vertex_oags)} V-OAGs and "
        f"{len(resources.hyperedge_oags)} H-OAGs "
        f"(+{resources.storage_bytes() / 1024:.0f} KiB) in "
        f"{build_seconds:.2f}s\n"
    )

    # 3. Run the same algorithm under each scheduler.
    runs = {}
    for engine in (
        HygraEngine(),
        SoftwareGlaEngine(resources),
        ChGraphEngine(resources),
    ):
        runs[engine.name] = engine.run(
            PageRank(iterations=3), hypergraph, SimulatedSystem(config)
        )

    hygra = runs["Hygra"]
    rows = [
        [
            name,
            run.cycles,
            run.dram_accesses,
            run.speedup_over(hygra),
            run.dram_reduction_over(hygra),
        ]
        for name, run in runs.items()
    ]
    print(
        render_table(
            ["System", "Cycles", "DRAM accesses", "Speedup", "DRAM reduction"],
            rows,
            title="PageRank on WEB (3 iterations, simulated 16-core system)",
        )
    )

    # 4. Results are identical across schedulers — reordering a synchronous
    #    phase cannot change the answer (the paper's correctness argument).
    import numpy as np

    assert np.allclose(runs["GLA"].result, hygra.result)
    assert np.allclose(runs["ChGraph"].result, hygra.result)
    print("\nall three schedulers computed identical PageRank vectors")


if __name__ == "__main__":
    main()
