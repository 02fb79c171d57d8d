"""Figure 8: the overlapped feature of the hypergraphs."""


def test_fig08_overlap_ratios(figure):
    rows = figure("fig08")
    # Paper: 55-96% of vertices shared by two hyperedges; the heavy-overlap
    # datasets (OG/LJ/OK) dominate the high-threshold tail over FS/WEB.
    vertex_rows = {row[1]: row[2:] for row in rows if row[0] == "vertex"}
    for dataset, curve in vertex_rows.items():
        assert curve[0] > 0.5, f"{dataset}: too little sharing"
        assert list(curve) == sorted(curve, reverse=True)
    heavy = min(vertex_rows[d][-1] for d in ("OK", "LJ", "OG"))
    light = max(vertex_rows[d][-1] for d in ("FS", "WEB"))
    assert heavy >= light
