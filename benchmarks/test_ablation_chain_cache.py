"""Ablation: reusing dense-algorithm chains across iterations (§VI-B).

The paper notes that for all-active algorithms (PR) "the per-iteration
chain will be the same without any changes", so chains need generating only
once.  This ablation quantifies that optimization by disabling the cache in
both chain-driven engines.
"""


def test_ablation_chain_cache(figure):
    rows = figure("ablation_chain_cache")
    by_label = {row[0]: row for row in rows}
    # Caching must help the software engine (its generation is expensive)...
    assert by_label["GLA (cache)"][1] < by_label["GLA (regenerate)"][1]
    # ... and the cached engines generate exactly once per phase kind.
    assert by_label["GLA (cache)"][2] == 2
    assert by_label["GLA (regenerate)"][2] > 2
    # The hardware engine cares far less: regeneration is nearly free, which
    # is the paper's argument for why HCG suppresses the GLA overhead.
    hw_penalty = (
        by_label["ChGraph (regenerate)"][1] / by_label["ChGraph (cache)"][1]
    )
    sw_penalty = (
        by_label["GLA (regenerate)"][1] / by_label["GLA (cache)"][1]
    )
    assert hw_penalty < sw_penalty
