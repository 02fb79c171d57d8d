"""Figure 23: ChGraph vs an event-driven hardware prefetcher."""

import statistics


def test_fig23_prefetcher(figure):
    rows = figure("fig23")
    prefetcher_gain = [row[2] for row in rows]
    chgraph_over_prefetcher = [row[3] for row in rows]
    # The prefetcher does help over Hygra (it hides latency) ...
    assert statistics.mean(prefetcher_gain) > 1.0
    # ... but ChGraph still beats it (paper: 1.56x-2.88x) because it changes
    # the order instead of just hiding latency.
    assert statistics.mean(chgraph_over_prefetcher) > 1.0
