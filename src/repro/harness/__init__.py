"""Experiment harness: dataset registry, memoized runner, report tables,
and the sharded parallel experiment executor."""

from repro._exports import exports

__getattr__, __all__ = exports(__name__, {
    "ExecutionReport": "parallel",
    "RunReport": "parallel",
    "RunSpec": "spec",
    "Runner": "runner",
    "execute_runs": "parallel",
    "get_runner": "runner",
    "graph_dataset": "datasets",
    "hypergraph_dataset": "datasets",
    "plan_shards": "parallel",
    "render_table": "report",
})
