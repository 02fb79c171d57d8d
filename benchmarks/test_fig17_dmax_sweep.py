"""Figure 17: sensitivity to the maximum exploration depth D_max."""


def test_fig17_dmax_sweep(figure):
    rows = figure("fig17")
    speedups = {row[0]: row[2] for row in rows}
    # Paper: performance improves up to D_max = 16, then flattens/declines.
    assert speedups[16] >= speedups[2]
    assert speedups[16] >= 0.95 * max(speedups.values())
