"""Extension: cross-validating the closed-form engine timing (§VI-A).

The execution engines price ChGraph's engine with closed-form recurrences
(beats + overlapped latency, `max(core, engine)` at the barrier).  The
cycle-level model in `repro.chgraph.cycle_model` prices the same work as an
exact in-order pipeline recurrence with FIFO backpressure and finite MSHRs.
This bench runs both over every chunk of a PR vertex-computation phase and
checks they agree within a modest factor — the closed form is a sound
summary, not an accident of constants.
"""


def test_ablation_cycle_model(figure):
    rows = figure("ablation_cycle_model")
    ratios = [row[5] for row in rows]
    # The two models must agree to within 2x in both directions — the
    # closed form's job is the right order of magnitude and the right
    # bottleneck, which the assertions in the engine benches then exploit.
    assert all(0.5 <= ratio <= 2.0 for ratio in ratios)
