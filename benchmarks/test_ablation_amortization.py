"""Extension: preprocessing amortization across applications (§VI-G).

"A preprocessed hypergraph can be used for any hypergraph algorithm so that
preprocessing overheads incurred can be amortized by multiple executions of
a variety of hypergraph algorithms."  This bench quantifies that claim: the
OAG build is paid once, then every additional application ChGraph runs
widens its total-time lead over Hygra.
"""


def test_ablation_amortization(figure):
    rows = figure("ablation_amortization")
    speedups = [row[2] for row in rows]
    # The cumulative speedup never falls below break-even and the final
    # (6-app) figure beats the single-app one: amortization works.
    assert speedups[-1] > 1.0
    assert speedups[-1] >= speedups[0]
