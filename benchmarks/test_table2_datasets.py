"""Table II: the five hypergraph datasets (scaled stand-ins)."""


def test_table2_datasets(figure):
    rows = figure("table2")
    names = [row[0] for row in rows]
    assert names == ["FS", "OK", "LJ", "WEB", "OG"]
    # Table II orderings preserved: FS and WEB are the |V| > |H| datasets,
    # OG has the densest incidence structure per hyperedge.
    by_name = {row[0]: row for row in rows}
    for key in ("FS", "WEB"):
        assert by_name[key][1] > by_name[key][2]
    for key in ("OK", "LJ", "OG"):
        assert by_name[key][2] > by_name[key][1]
    degrees = {name: row[3] / row[2] for name, row in by_name.items()}
    assert max(degrees, key=degrees.get) == "OG"
