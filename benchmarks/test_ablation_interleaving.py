"""Extension: chunk-serial vs round-robin core interleaving.

DESIGN.md documents that the simulator runs cores' chunks serially through
the shared hierarchy; real cores interleave.  This bench bounds the error:
both extremes (fully serial, perfectly fair round-robin) run the same PR
workload, and their DRAM counts must agree within a modest margin for the
serial simplification to be sound.
"""

import numpy as np

from repro.harness.experiments import FIGURES
from repro.harness.runner import get_runner
from repro.harness.spec import RunSpec


def test_ablation_interleaving(figure):
    rows = figure("ablation_interleaving")
    for row in rows:
        # The simplification is sound if the two extremes agree within ~30%.
        assert 0.7 <= row[3] <= 1.3
    # Both extremes compute the same answer.  The figure's runs are memo
    # hits by now, so nothing simulates again.
    declared = FIGURES["ablation_interleaving"]
    results = get_runner().run_many(declared.specs())
    for dataset in declared.datasets:
        serial, interleaved = (
            results[RunSpec(engine, "PR", dataset)] for engine in declared.engines
        )
        assert np.allclose(serial.result, interleaved.result)
