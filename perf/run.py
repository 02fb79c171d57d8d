"""Run the repository benchmark.

    python3 perf/run.py --seed N [--workload W] [--seconds S] [--trace [0|1]]
                        [--out-dir D] [--smoke]

Each workload runs in a fresh interpreter (``perf/workloads.py``) against
the sources in ``src/`` of the checkout this file sits in.  With
``--workload``, the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of ``BENCHMARK.json``, or with ``--trace 1`` every
``per_layer`` metric.  Without ``--workload`` every workload runs in turn and
the metric names are prefixed with ``<workload>/``; ``--trace`` then also
runs each workload untraced and reports the tracing overhead.

Per-run results (``<workload>-seed<N>[-trace].json``), span files and the
scratch stores live under ``--out-dir`` (default ``.perf_out/`` in the
checkout); nothing else is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A workload that has not finished by then is killed with its workers.
CHILD_TIMEOUT_S = 170


def run_workload(args: argparse.Namespace, workload: str, trace: int) -> dict | None:
    """Run one workload in a fresh interpreter; its result, or ``None``."""
    suffix = "-trace" if trace else ""
    out = args.out_dir / f"{workload}-seed{args.seed}{suffix}.json"
    scratch = args.out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(scratch))
    command = [
        sys.executable, str(ROOT / "perf" / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.inject_fault:
        command.append("--inject-fault")
    sys.stdout.flush()
    # A session of its own lets a timeout take down the program's worker
    # processes along with the workload.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perf: {workload} exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        print(f"perf: {workload} exited {code}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".perf_out")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs: exercise every path in seconds"
    )
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="perturb one engine's output to show the correctness checks fire",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.out_dir = args.out_dir.resolve()

    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in benchmark[section]]
    if args.workload:
        workloads = [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in workloads:
        untraced = None
        if args.trace and not args.workload:
            untraced = run_workload(args, workload, trace=0)
            if untraced is None:
                return 1
        result = run_workload(args, workload, trace=args.trace)
        if result is None:
            return 1
        if untraced is not None:
            base = untraced["end_to_end"]["host_s"]["value"]
            traced = result["end_to_end"]["host_s"]["value"]
            print(
                f"trace overhead on {workload}: host_s {traced:.4f}s traced vs "
                f"{base:.4f}s untraced ({100 * (traced - base) / base:+.1f}%)"
            )
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if args.workload else f"{workload}/"
        for name in names:
            metric = result[section][name]
            metrics[prefix + name] = {"value": metric["value"], "unit": metric["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
