"""Figure 25: generality — ordinary graph applications (§VI-I)."""

import statistics


def test_fig25_graph_apps(figure):
    rows = figure("fig25")
    vs_ligra = [row[2] for row in rows]
    vs_hats = [row[3] for row in rows]
    # Paper: ChGraph offers 2.13x over Ligra on average and performs
    # comparably to HATS on ordinary graphs (the OAG degenerates to the
    # input graph).
    assert statistics.mean(vs_ligra) > 1.0
    assert all(0.3 < ratio < 5.0 for ratio in vs_hats)
