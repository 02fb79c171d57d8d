"""Extension: push vs pull traversal direction (Ligra's edgeMap choice).

Hygra inherits Ligra's direction optimization; the paper's model is the
push side.  This ablation maps the trade-off on our workloads: pull
competes for dense algorithms (PR) and collapses for sparse ones (BFS) —
and chain scheduling's win over index order is a *push-side* property, so
ChGraph is compared against the better of the two directions per workload.
"""

from repro.engine import ChGraphEngine, HygraEngine
from repro.engine.pull import PullHygraEngine
from repro.harness.runner import get_runner
from repro.harness.spec import RunSpec
from repro.sim.config import scaled_config
from repro.sim.system import SimulatedSystem


def _measure():
    runner = get_runner()
    config = scaled_config()
    hypergraph = runner.dataset("WEB")
    resources = runner.resources(hypergraph, config)
    rows = []
    for app in ("PR", "BFS", "CC"):
        push = runner.run(RunSpec("Hygra", app, "WEB"))
        pull = PullHygraEngine().run(
            runner.algorithm(app), hypergraph, SimulatedSystem(config)
        )
        chgraph = runner.run(RunSpec("ChGraph", app, "WEB"))
        best = min(push.cycles, pull.cycles)
        rows.append([
            app,
            push.cycles,
            pull.cycles,
            pull.cycles / push.cycles,
            best / chgraph.cycles,
        ])
    return (
        "Extension: push vs pull on WEB (ChGraph vs the better direction)",
        ["App", "Push cycles", "Pull cycles", "Pull/Push", "ChGraph speedup"],
        rows,
    )


def test_ablation_pull(benchmark, emit):
    rows = emit(
        "ablation_pull", benchmark.pedantic(_measure, rounds=1, iterations=1)
    )
    by_app = {row[0]: row for row in rows}
    # Sparse BFS must prefer push; the dense PR gap must be much smaller.
    assert by_app["BFS"][3] > 1.2
    assert by_app["PR"][3] < by_app["BFS"][3]
    # ChGraph still beats whichever direction wins.
    assert all(row[4] > 1.0 for row in rows)
