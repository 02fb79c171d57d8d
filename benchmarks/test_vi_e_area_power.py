"""Section VI-E: area, power, and buffer storage of one ChGraph engine."""


def test_vi_e_area_power(figure):
    rows = figure("vi_e")
    values = {row[0]: row[1] for row in rows}
    assert values["Stack storage"] == "1216 B"
    assert values["Chain FIFO storage"] == "128 B"
    assert values["Bipartite-edge FIFO storage"] == "768 B"
    assert values["Config registers"] == "84 B"
    # Paper: 0.094 mm2, 0.26% of a core; 61 mW, 0.19% of TDP.
    assert values["Total area"].startswith("0.09")
    assert values["Area vs core"] == "0.26%"
    assert values["Total power"] in ("61 mW", "62 mW", "60 mW")
    assert values["Power vs core TDP"] == "0.19%"
