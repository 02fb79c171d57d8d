"""Compare two sets of benchmark results.

    python3 perf/compare.py A/*.json -- B/*.json

Each file is one workload result written by ``perf/run.py`` (set A is the
baseline, set B the candidate).  For every (workload, end-to-end metric) it
prints both sets' medians and quartiles, the fraction of (A, B) pairs B wins,
and a verdict against the metric's bound in ``BENCHMARK.json``:

- ``regressed``: B's median is worse than A's by more than the bound;
- ``improved``: B wins at least nine tenths of the pairs and its median is
  better by more than A's own spread (the distance between A's quartiles);
- ``unresolved``: either set's spread is wider than the bound, and B neither
  wins nor loses every pair;
- ``unchanged``: otherwise.

It then prints the same for every per-layer metric the workload exercises
(without a verdict: per-layer metrics have no bound), and flags every
deterministic count and ``sim_digest`` that differs between runs of one
workload at one seed.
The exit status is 1 when anything regressed or differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def spread(values: list[float]) -> float:
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def win_fraction(a: list[float], b: list[float], lower_is_better: bool) -> tuple[float, float]:
    """Fractions of all (a, b) pairs in which b is better, and worse."""
    pairs = len(a) * len(b)
    wins = sum((y < x) if lower_is_better else (y > x) for x in a for y in b)
    losses = sum((y > x) if lower_is_better else (y < x) for x in a for y in b)
    return wins / pairs, losses / pairs


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a if lower_is_better else (med_a - med_b) / med_a
    wins, losses = win_fraction(a, b, lower_is_better)
    if max(spread(a), spread(b)) > bound:
        if wins == 1.0:
            return "improved"
        if losses == 1.0:
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if wins >= 0.9 and -worse > spread(a):
        return "improved"
    return "unchanged"


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def collect(results: list[dict], section: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for result in results:
        for name, metric in result[section].items():
            values[(result["workload"], name)].append(metric["value"])
    return values


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    a, b = load(argv[:split]), load(argv[split + 1:])
    if not a or not b:
        print("compare: each side needs at least one result file", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    bad = 0

    header = f"{'workload':12s} {'metric':38s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} {'B wins':>6s}  verdict"
    for section in ("end_to_end", "per_layer"):
        print(f"-- {section}")
        print(header)
        va, vb = collect(a, section), collect(b, section)
        for key in sorted(va.keys() & vb.keys()):
            spec = specs.get(key[1])
            if spec is None:
                continue
            lower = spec["better"] == "lower"
            xs, ys = va[key], vb[key]
            if not any(xs + ys):
                continue  # a layer this workload does not call
            wins, _ = win_fraction(xs, ys, lower)
            verdict_text = "-"
            if section == "end_to_end":
                verdict_text = verdict(xs, ys, spec["bound"], lower)
                bad += verdict_text == "regressed"
            print(
                f"{key[0]:12s} {key[1]:38s} {summary(xs):>30s} {summary(ys):>30s} "
                f"{wins:6.2f}  {verdict_text}"
            )

    print("-- deterministic counts and sim_digest (per workload and seed)")
    by_seed: dict[tuple[str, int, bool], list[tuple[str, dict]]] = defaultdict(list)
    for side, results in (("A", a), ("B", b)):
        for result in results:
            key = (result["workload"], result["seed"], result["smoke"])
            by_seed[key].append((side, {**result["counts"], "sim_digest": result["sim_digest"]}))
    differing = 0
    for (workload, seed, _), runs in sorted(by_seed.items()):
        reference_side, reference = runs[0]
        for side, counts in runs[1:]:
            for name in sorted(reference.keys() | counts.keys()):
                if reference.get(name) != counts.get(name):
                    differing += 1
                    print(
                        f"DIFFERS {workload} seed={seed} {name}: "
                        f"{reference_side}={reference.get(name)} {side}={counts.get(name)}"
                    )
    print(f"{differing} differing count(s) across {len(by_seed)} (workload, seed) group(s)")
    return 1 if bad or differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
