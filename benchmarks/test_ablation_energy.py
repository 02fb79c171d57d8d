"""Extension: energy comparison (the paper's McPAT/DDR methodology, §VI-A).

The paper derives chip and memory energy with McPAT and Micron datasheets
but reports no per-system energy figure; this extension completes that
analysis with the repo's energy model.  Expected shape: ChGraph's DRAM
energy shrinks with its access reduction, and total energy follows, because
DRAM dominates a memory-bound workload's energy.
"""


def test_ablation_energy(figure):
    rows = figure("ablation_energy")
    by_key = {(row[0], row[1]): row for row in rows}
    for dataset in ("OK", "WEB"):
        hygra = by_key[(dataset, "Hygra")]
        chgraph = by_key[(dataset, "ChGraph")]
        assert chgraph[2] < hygra[2], "DRAM energy must shrink"
        assert chgraph[3] < hygra[3], "total energy must shrink"
        assert 0.0 < chgraph[4] <= 1.0
