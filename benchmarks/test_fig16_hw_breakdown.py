"""Figure 16: benefit breakdown of the HCG and the CP."""

import statistics


def test_fig16_hw_breakdown(figure):
    rows = figure("fig16")
    # Paper: HCG contributes most of the benefit (4.42x over software GLA on
    # average, 92% of the total); CP adds a further 1.37x.
    hcg_gain = [row[1] for row in rows]
    cp_gain = [row[2] for row in rows]
    total = [row[3] for row in rows]
    assert statistics.mean(hcg_gain) > 1.0
    assert statistics.mean(cp_gain) > 1.0
    assert all(t >= h * 0.95 for t, h in zip(total, hcg_gain))
    # Deviation note (EXPERIMENTS.md): the paper attributes ~92% of the
    # benefit to the HCG; our scaled model's cache-resident OAG shrinks the
    # software generation cost it removes, so the CP's latency hiding
    # carries a larger share here.  Both must contribute materially.
    assert statistics.mean(total) > 2.0
