"""Extension: push vs pull traversal direction (Ligra's edgeMap choice).

Hygra inherits Ligra's direction optimization; the paper's model is the
push side.  This ablation maps the trade-off on our workloads: pull
competes for dense algorithms (PR) and collapses for sparse ones (BFS) —
and chain scheduling's win over index order is a *push-side* property, so
ChGraph is compared against the better of the two directions per workload.
"""


def test_ablation_pull(figure):
    rows = figure("ablation_pull")
    by_app = {row[0]: row for row in rows}
    # Sparse BFS must prefer push; the dense PR gap must be much smaller.
    assert by_app["BFS"][3] > 1.2
    assert by_app["PR"][3] < by_app["BFS"][3]
    # ChGraph still beats whichever direction wins.
    assert all(row[4] > 1.0 for row in rows)
