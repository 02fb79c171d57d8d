"""Figure 15: DRAM access breakdown by array group."""


def test_fig15_access_breakdown(figure):
    rows = figure("fig15")
    hygra_rows = [row for row in rows if row[2] == "H"]
    chgraph_rows = [row for row in rows if row[2] == "C"]

    # Paper: value arrays dominate Hygra's misses (> 90% of accesses).
    value_share = sum(row[6] for row in hygra_rows) / sum(
        row[3] for row in hygra_rows
    )
    assert value_share > 0.6

    # Hygra never touches OAG arrays; ChGraph pays a small OAG tax
    # (paper: 6.86%-12.08% of its total).
    assert all(row[7] == 0 for row in hygra_rows)
    chg_total = sum(row[3] for row in chgraph_rows)
    oag_share = sum(row[7] for row in chgraph_rows) / chg_total
    assert 0.0 < oag_share < 0.2

    # ChGraph reduces value-array misses but slightly increases incident
    # misses (the paper's stated trade).
    hygra_value = sum(row[6] for row in hygra_rows)
    chg_value = sum(row[6] for row in chgraph_rows)
    assert chg_value < hygra_value
    hygra_incident = sum(row[5] for row in hygra_rows)
    chg_incident = sum(row[5] for row in chgraph_rows)
    assert chg_incident >= hygra_incident
