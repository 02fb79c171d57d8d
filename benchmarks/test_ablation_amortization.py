"""Extension: preprocessing amortization across applications (§VI-G).

"A preprocessed hypergraph can be used for any hypergraph algorithm so that
preprocessing overheads incurred can be amortized by multiple executions of
a variety of hypergraph algorithms."  This bench quantifies that claim: the
OAG build is paid once, then every additional application ChGraph runs
widens its total-time lead over Hygra.
"""

from repro.harness.experiments import _preprocess_costs
from repro.harness.runner import PAPER_APPS, get_runner
from repro.harness.spec import RunSpec


def _measure():
    runner = get_runner()
    dataset = "WEB"
    hygra_pre, oag_pre, _ = _preprocess_costs(runner, dataset)
    rows = []
    hygra_total = hygra_pre
    chg_total = hygra_pre + oag_pre
    for count, app in enumerate(PAPER_APPS, start=1):
        hygra_total += runner.run(RunSpec("Hygra", app, dataset)).cycles
        chg_total += runner.run(RunSpec("ChGraph", app, dataset)).cycles
        rows.append([count, app, hygra_total / chg_total])
    return (
        "Extension: ChGraph total-time speedup as apps amortize the OAG build (WEB)",
        ["#Apps run", "Latest app", "Cumulative speedup"],
        rows,
    )


def test_ablation_amortization(benchmark, emit):
    rows = emit(
        "ablation_amortization",
        benchmark.pedantic(_measure, rounds=1, iterations=1),
    )
    speedups = [row[2] for row in rows]
    # The cumulative speedup never falls below break-even and the final
    # (6-app) figure beats the single-app one: amortization works.
    assert speedups[-1] > 1.0
    assert speedups[-1] >= speedups[0]
