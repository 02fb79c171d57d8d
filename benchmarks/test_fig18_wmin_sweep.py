"""Figure 18: sensitivity to the OAG pruning threshold W_min."""


def test_fig18_wmin_sweep(figure):
    rows = figure("fig18")
    performance = {row[0]: row[2] for row in rows}
    # Paper shape (axis shifted with the weight scale, see experiments.py):
    # small thresholds are near-equivalent; pruning past the typical
    # overlap weight degrades performance as crucial edges vanish.
    assert performance[1] == 1.0
    assert performance[3] > 0.8  # small drop for small thresholds
    assert performance[65] < max(performance.values())
    assert performance[65] <= performance[3]
