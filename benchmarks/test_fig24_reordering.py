"""Figure 24: spatial reordering does not displace chain scheduling."""


def test_fig24_reordering(figure):
    rows = figure("fig24")
    speedups = {row[0]: row[2] for row in rows}
    # Paper: reordering's overhead offsets its benefit; ChGraph wins with or
    # without it.
    assert speedups["ChGraph"] > speedups["Hygra+Reorder"]
    assert speedups["ChGraph"] > 1.0
    assert speedups["Hygra+Reorder"] < speedups["ChGraph+Reorder"] * 2
