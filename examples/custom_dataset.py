#!/usr/bin/env python3
"""Bring your own hypergraph: load, audit, preprocess, simulate.

The onboarding path for real data: write/read any of the supported formats
(hyperedge list, KONECT bipartite pairs, MatrixMarket, JSON), run the
structural audit, build the GLA preprocessing artifacts, and compare
schedulers — everything a user does before trusting a result.

Run:  python examples/custom_dataset.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import ChGraphEngine, ConnectedComponents, GlaResources, HygraEngine
from repro.harness.report import render_table
from repro.hypergraph.generators import AffiliationConfig, generate_affiliation_hypergraph
from repro.hypergraph.io import (
    load_hyperedge_list,
    load_matrix_market,
    save_hyperedge_list,
    save_matrix_market,
)
from repro.hypergraph.validate import audit
from repro.sim import SimulatedSystem, scaled_config


def main() -> None:
    # Stand-in for "your data": in practice this is a file you downloaded.
    original = generate_affiliation_hypergraph(
        AffiliationConfig(
            num_vertices=900,
            num_hyperedges=900,
            mean_hyperedge_degree=30.0,
            min_hyperedge_degree=12,
            num_communities=14,
            overlap_bias=0.97,
            seed=51,
        ),
        name="mydata",
    )

    with tempfile.TemporaryDirectory() as tmp:
        # 1. Round-trip through two interchange formats.
        hgr = Path(tmp) / "mydata.hgr"
        mtx = Path(tmp) / "mydata.mtx"
        save_hyperedge_list(original, hgr)
        save_matrix_market(original, mtx)
        from_hgr = load_hyperedge_list(hgr, num_vertices=original.num_vertices)
        from_mtx = load_matrix_market(mtx)
        assert from_hgr.hyperedges == from_mtx.hyperedges
        hypergraph = from_mtx
        print(f"loaded {hypergraph} from {mtx.name}")

    # 2. Audit before spending simulation time.
    report = audit(hypergraph)
    print(
        f"audit: deg(h) mean {report.mean_hyperedge_degree:.1f} "
        f"(max {report.max_hyperedge_degree}), deg(v) mean "
        f"{report.mean_vertex_degree:.1f}, sharable "
        f"{report.sharable_vertex_ratio:.0%}"
    )
    if report.warnings:
        print("warnings:", *report.warnings, sep="\n  - ")
    else:
        print("audit clean: good overlap structure for chain scheduling")

    # 3. Preprocess (the OAG build Figure 21 prices) and simulate.
    config = scaled_config(num_cores=8, llc_kb=2)
    start = time.perf_counter()
    resources = GlaResources.build(hypergraph, config.num_cores)
    build_seconds = time.perf_counter() - start
    print(
        f"\nOAG build: {build_seconds:.2f}s, "
        f"+{resources.storage_bytes() / 1024:.0f} KiB "
        f"(+{100 * resources.storage_bytes() / hypergraph.size_bytes():.0f}% "
        "over the bipartite CSR)"
    )

    rows = []
    baseline = None
    for engine in (HygraEngine(), ChGraphEngine(resources)):
        run = engine.run(ConnectedComponents(), hypergraph, SimulatedSystem(config))
        if baseline is None:
            baseline = run
        rows.append([
            run.engine, run.iterations, run.cycles, run.dram_accesses,
            run.speedup_over(baseline),
        ])
    print(
        render_table(
            ["Engine", "Iters", "Cycles", "DRAM", "Speedup"],
            rows,
            title="Connected components on your data",
        )
    )


if __name__ == "__main__":
    main()
