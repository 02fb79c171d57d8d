"""Figure 14: the headline evaluation — all six apps, five datasets.

Paper shapes: software GLA is 1.13x-1.62x *slower* than Hygra (speedup < 1)
with PR the mildest; ChGraph is 3.39x-4.73x faster (4.12x average).
"""

import statistics


def test_fig14_performance(figure):
    rows = figure("fig14")
    assert len(rows) == 30  # 6 apps x 5 datasets

    gla = [row[2] for row in rows]
    chgraph = [row[3] for row in rows]
    reductions = [row[4] for row in rows]

    # Software GLA loses to Hygra on average (the paper's Figure 3/14 story).
    assert statistics.mean(gla) < 1.0
    # ChGraph wins everywhere, by a sizable mean factor.
    assert all(speedup > 1.0 for speedup in chgraph)
    assert statistics.mean(chgraph) > 2.0
    # And it fetches fewer DRAM lines on average.
    assert statistics.mean(reductions) > 1.0

    # PR shows the smallest GLA slowdown (its chains are generated once).
    by_app = {}
    for row in rows:
        by_app.setdefault(row[0], []).append(row[2])
    pr_mean = statistics.mean(by_app["PR"])
    others = [s for app, values in by_app.items() if app != "PR" for s in values]
    assert pr_mean >= statistics.mean(others)
