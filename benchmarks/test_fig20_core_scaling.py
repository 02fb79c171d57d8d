"""Figure 20: scaling with the number of cores."""


def test_fig20_core_scaling(figure):
    rows = figure("fig20")
    chgraph_cycles = [row[2] for row in rows]
    # More cores -> faster, with diminishing returns (paper's growth-rate
    # observation): the 8->16 gain is smaller than the 4->8 gain.
    assert chgraph_cycles[0] > chgraph_cycles[1] > chgraph_cycles[2]
    gain_4_8 = chgraph_cycles[0] / chgraph_cycles[1]
    gain_8_16 = chgraph_cycles[1] / chgraph_cycles[2]
    assert gain_4_8 >= gain_8_16 * 0.9
    # ChGraph keeps beating Hygra at every core count.
    assert all(row[3] > 1.0 for row in rows)
