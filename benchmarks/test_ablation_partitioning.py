"""Extension: overlap-aware partitioning vs default contiguous chunking.

§IV-B leaves the partitioner pluggable; since chunks are contiguous id
ranges, renumbering elements along global chains aligns overlap clusters
with chunk boundaries, densifying per-chunk OAGs (see
`repro.hypergraph.community_partition`).  The bench measures what that buys
ChGraph end to end.
"""


def test_ablation_partitioning(figure):
    rows = figure("ablation_partitioning")
    default, renumbered = rows
    # Renumbering must not hurt ChGraph materially, and typically helps.
    assert renumbered[4] > 0.9
    # ChGraph keeps beating Hygra under either partitioning.
    assert default[2] > 1.0 and renumbered[2] > 1.0
