"""Figure 21: ChGraph's extra preprocessing time and storage."""


def test_fig21_preprocessing(figure):
    rows = figure("fig21")
    # Paper: +13.6%-46% preprocessing time and +13.9%-20.4% storage.  The
    # shape check: both overheads exist, are bounded, and storage stays a
    # modest fraction of the dataset.
    for _, extra_time, extra_storage in rows:
        assert extra_time > 0
        assert 0 < extra_storage < 100
