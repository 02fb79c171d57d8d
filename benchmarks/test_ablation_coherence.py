"""Extension: coherence traffic under each scheduler (Table I's MESI).

With MESI tracking enabled, every cross-core write-share costs an
invalidation and every read of a remotely-modified line a downgrade.  Both
schedulers write destination values from all cores (dst arrays are not
chunk-partitioned), so coherence traffic exists either way; the bench
records how much.  The runner audits the directory's invariants after each
coherence-tracked run.
"""


def test_ablation_coherence(figure):
    rows = figure("ablation_coherence")
    for row in rows:
        assert row[2] > 0  # write sharing exists under any scheduler
