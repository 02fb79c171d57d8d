"""Figure 2: GLA reduces main-memory accesses over Hygra (PR on WEB)."""


def test_fig02_memaccess_pr_web(figure):
    rows = figure("fig02")
    by_system = {row[0]: row for row in rows}
    # Paper: GLA cuts DRAM accesses 4.09x on WEB; the scaled shape check is
    # that both chain-driven systems fetch meaningfully fewer lines.
    assert by_system["GLA"][2] > 1.2
    assert by_system["ChGraph"][2] > 1.2
