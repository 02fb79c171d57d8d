"""Table I: the simulated system configuration."""


def test_table1_config(figure):
    rows = figure("table1")
    structures = [row[0] for row in rows]
    assert structures == [
        "Cores", "L1 caches", "L2 cache", "L3 cache", "NoC", "Coherence",
        "Main memory",
    ]
    assert "16 cores" in rows[0][1]
    assert "32MB shared" in rows[3][1]
