"""Ablation: the W_min space/locality trade-off (§IV-A).

"users can set a threshold W_min to prevent creating the edges whose
weights are less than W_min ... a good tradeoff between space overhead of
OAG and representation ability of overlapping semantics."  This bench maps
the whole trade: OAG storage shrinks monotonically with W_min while the
Figure 18 sweep (run separately) shows where locality starts to suffer.
"""


def test_ablation_wmin_storage(figure):
    rows = figure("ablation_wmin_storage")
    edges = [row[1] for row in rows]
    storage = [row[2] for row in rows]
    # Pruning is monotone in both edge count and bytes.
    assert edges == sorted(edges, reverse=True)
    assert storage == sorted(storage, reverse=True)
    # The default threshold (3) must already cut storage vs keeping all.
    assert storage[1] < storage[0]
