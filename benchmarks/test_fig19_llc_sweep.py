"""Figure 19: sensitivity to the LLC size (paper 8-32 MB, scaled 2-8 KB)."""


def test_fig19_llc_sweep(figure):
    rows = figure("fig19")
    speedups = [row[2] for row in rows]
    # Paper: growing the LLC 4x improves ChGraph by ~1.30x — a mild effect
    # because chain scheduling already keeps the hot set near the core.
    assert speedups[-1] >= 1.0
    assert speedups[-1] < 3.0
