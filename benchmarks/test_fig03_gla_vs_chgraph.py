"""Figure 3: software GLA is slower than Hygra; ChGraph reverses it."""


def test_fig03_gla_vs_chgraph(figure):
    rows = figure("fig03")
    by_system = {row[0]: row for row in rows}
    # Paper: GLA runs 1.14x slower (speedup < 1) and ChGraph 4.39x faster.
    assert by_system["GLA"][2] < 1.0
    assert by_system["ChGraph"][2] > 2.0
