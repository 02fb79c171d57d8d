"""The abstract's headline claims, condensed into one table."""


def test_headline_summary(figure):
    rows = figure("summary")
    for app, s_min, s_max, r_min, r_max, gla_mean in rows:
        assert s_min > 1.0, f"{app}: ChGraph must beat Hygra everywhere"
        assert r_min > 1.0, f"{app}: DRAM accesses must shrink everywhere"
        assert gla_mean < 1.0, f"{app}: software GLA must lose on average"
