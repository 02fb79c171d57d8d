"""Figure 5: hypergraph processing under Hygra is memory bound."""


def test_fig05_memory_stalls(figure):
    rows = figure("fig05")
    # Paper: off-chip accesses take 51% of time on average, up to 84% for
    # PR on WEB.  Check: every cell is a substantial fraction, and the mean
    # across the table exceeds 40%.
    cells = [value for row in rows for value in row[1:]]
    assert all(0.1 <= value <= 1.0 for value in cells)
    assert sum(cells) / len(cells) > 0.4
    pr_row = next(row for row in rows if row[0] == "PR")
    web_stall = pr_row[1 + list(("FS", "OK", "LJ", "WEB", "OG")).index("WEB")]
    assert web_stall > 0.5
