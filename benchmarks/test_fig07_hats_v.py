"""Figure 7: ChGraph outperforms the HATS-V variant."""


def test_fig07_hats_v(figure):
    rows = figure("fig07")
    # Paper: HATS-V is inferior to ChGraph by 2.56x-3.01x.  Scaled shape:
    # ChGraph wins on every (app, dataset) pair.
    assert all(row[2] > 1.0 for row in rows)
