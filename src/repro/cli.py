"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print Table II for the built-in datasets.
``run``
    Simulate one (engine, algorithm, dataset) and print the result summary.
``compare``
    Run Hygra, software GLA and ChGraph on one workload side by side.
``profile``
    Run engines on one workload under instrumentation and print per-phase
    cycle/DRAM breakdowns plus the per-iteration frontier timeline.
``bench``
    Regenerate paper tables/figures by id (e.g. ``--figures fig14,table2``),
    executing their combined run matrix on the sharded parallel executor
    (``--jobs N --timeout S``); the tables are byte-identical to serial
    execution.  After each table, one stderr line says whether the
    figure's paper claim holds on it, naming each condition that fails.
``check``
    Run the invariant + cross-engine differential checking suite: every
    registry engine on seeded generator hypergraphs under an attached
    :class:`~repro.sim.invariants.InvariantChecker`, asserting identical
    algorithm results and sane access-count orderings.  Exits non-zero on
    any failure; ``--inject-fault`` deliberately breaks the hierarchy to
    prove the checker fires.
``area``
    Print the §VI-E area/power accounting.
``benchmark``
    The continuous benchmark-regression suite (:mod:`repro.benchmark`):
    ``run`` measures the registered hot-path probes (warmup + min-of-k +
    bootstrap CIs) and emits a schema-versioned ``BENCH_<host>.json``;
    ``compare`` renders the trend table against a baseline; ``gate``
    additionally exits non-zero on a noise-cleared regression;
    ``baseline`` promotes (optionally scaling) a report into
    ``benchmarks/baselines/``.
``prewarm``
    Build GlaResources for dataset × core-count combos in parallel and
    persist them into the artifact store.
``cache``
    Inspect or maintain the artifact store (``stats``/``ls``/``gc``/``clear``).
``serve``
    Run the long-lived simulation service (``repro.service``): JSON over
    HTTP with request coalescing, admission control, a store-backed fast
    path and graceful SIGTERM drain.
``submit``
    Submit one run to a running service and (by default) wait for it,
    printing the same summary table ``run`` prints — byte-identical.
``status``
    Poll a job by id, or print the service's /healthz + /stats overview.

The artifact store root comes from ``--cache-dir`` or ``$REPRO_CACHE_DIR``;
``run``/``compare``/``bench`` transparently reuse persisted artifacts
whenever the environment variable is set.

Errors derived from :class:`~repro.errors.ReproError` exit with their
class's distinct exit code (e.g. 75 for a retryable
``ServiceOverloadedError``, 66 for ``JobNotFoundError``) instead of dumping
a traceback; ``repro --version`` reports the package version.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from collections.abc import Callable, Sequence

from repro import __version__
from repro.engine.registry import engine_names
from repro.errors import ReproError
from repro.harness import differential
from repro.harness.datasets import DATASETS
from repro.harness.experiments import FIGURES, render
from repro.harness.report import render_table, render_telemetry
from repro.harness.runner import ALGORITHM_NAMES, Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.generators import PAPER_DATASETS
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec, stage_names
from repro.sim.config import scaled_config
from repro.store import ArtifactStore, prewarm, prewarm_jobs, resolve_cache_dir

__all__ = ["main", "build_parser"]

#: Every registered engine, in registry order — the single source of truth
#: for ``--engine`` choices is :mod:`repro.engine.registry`.
ENGINES = engine_names()
#: Algorithm choices come from the harness (the layer that builds them).
ALGORITHMS = ALGORITHM_NAMES

def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ChGraph (HPCA 2022) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print Table II for the built-in datasets")
    sub.add_parser("area", help="print the §VI-E area/power accounting")

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--algorithm", default="PR", choices=ALGORITHMS, help="application"
        )
        p.add_argument(
            "--dataset",
            default="WEB",
            choices=DATASETS,
            help="built-in dataset key",
        )
        p.add_argument("--cores", type=int, default=16, help="simulated cores")
        p.add_argument("--llc-kb", type=int, default=4, help="shared LLC size")
        p.add_argument(
            "--pr-iterations", type=int, default=2,
            help="iterations for PR/Adsorption",
        )
        p.add_argument(
            "--w-min", type=int, default=None,
            help="OAG pruning threshold (default: the paper's w_min)",
        )
        p.add_argument(
            "--d-max", type=int, default=None,
            help="chain depth bound (default: the paper's d_max)",
        )
        p.add_argument(
            "--preprocess", action="append", default=None,
            choices=stage_names(), metavar="STAGE",
            help="preprocessing stage to apply before simulation "
                 f"(repeatable; one of: {', '.join(stage_names())})",
        )

    run = sub.add_parser("run", help="simulate one engine on one workload")
    run.add_argument("--engine", default="ChGraph", choices=ENGINES)
    add_workload_args(run)

    compare = sub.add_parser(
        "compare", help="Hygra vs software GLA vs ChGraph on one workload"
    )
    add_workload_args(compare)

    profile = sub.add_parser(
        "profile",
        help="instrumented runs: per-phase and per-iteration telemetry",
    )
    profile.add_argument(
        "--engines",
        default="Hygra,GLA,ChGraph",
        help="comma-separated engines to profile (default: Hygra,GLA,ChGraph)",
    )
    profile.add_argument(
        "--check", action="store_true",
        help="attach the invariant checker; violations are reported through "
             "the telemetry and fail the command",
    )
    add_workload_args(profile)

    check = sub.add_parser(
        "check",
        help="invariant + cross-engine differential checking suite",
    )
    check.add_argument(
        "--graphs", type=int, default=5,
        help="seeded generator hypergraphs to sweep (default: 5)",
    )
    check.add_argument(
        "--seed", type=int, default=101, help="base generator seed"
    )
    check.add_argument(
        "--algorithms", default=",".join(differential.DEFAULT_ALGORITHMS),
        help="comma-separated algorithms (default: PR,BFS,CC)",
    )
    check.add_argument(
        "--engines", default=None,
        help="comma-separated engines (default: every registry engine)",
    )
    check.add_argument("--cores", type=int, default=4, help="simulated cores")
    check.add_argument("--llc-kb", type=int, default=2, help="shared LLC size")
    check.add_argument(
        "--no-ordering", action="store_true",
        help="skip the overlap-heavy DRAM-ordering checks",
    )
    check.add_argument(
        "--inject-fault", default=None, choices=differential.FAULT_KINDS,
        help="deliberately break the hierarchy; the command must then FAIL",
    )
    check.add_argument(
        "--quiet", action="store_true", help="suppress per-workload progress"
    )

    def add_cache_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            default=None,
            help="artifact store root (default: $REPRO_CACHE_DIR)",
        )

    bench = sub.add_parser(
        "bench",
        help="regenerate figures via the sharded parallel executor",
    )
    bench.add_argument(
        "--figures",
        default="all",
        help="comma-separated experiment ids (default: every experiment)",
    )
    bench.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: CPU count; 1 forces serial)",
    )
    bench.add_argument(
        "--timeout", type=float, default=None,
        help="per-run timeout in seconds, enforced inside workers "
        "(a one-shard plan runs inline and untimed)",
    )
    bench.add_argument(
        "--retries", type=int, default=2,
        help="retries for crashed/hung worker shards (default: 2)",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="run under instrumentation and append a telemetry summary "
             "(tables are unchanged: observation charges nothing)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="attach the invariant checker to every run (implies "
             "--profile; checked runs bypass the store); violations fail "
             "the command",
    )
    add_cache_dir_arg(bench)

    benchmark = sub.add_parser(
        "benchmark", help="continuous benchmark-regression suite"
    )
    bench_sub = benchmark.add_subparsers(dest="benchmark_command", required=True)

    b_run = bench_sub.add_parser(
        "run", help="measure the registered probes, emit BENCH_<host>.json"
    )
    b_run.add_argument(
        "--repeats", type=int, default=5,
        help="timed repetitions per probe; the min is gated (default: 5)",
    )
    b_run.add_argument(
        "--warmup", type=int, default=1,
        help="untimed warmup repetitions per probe (default: 1)",
    )
    b_run.add_argument(
        "--probes", default="all",
        help="comma-separated probe names (default: the full registry)",
    )
    b_run.add_argument(
        "--out-dir", default=".",
        help="directory for BENCH_<host>.json + manifest (default: cwd)",
    )

    def add_compare_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--current", required=True, help="the BENCH json under test"
        )
        p.add_argument(
            "--baseline", default=None,
            help="baseline BENCH json (default: "
                 "benchmarks/baselines/BENCH_<host-class>.json)",
        )
        p.add_argument(
            "--threshold", type=float, default=None,
            help="regression threshold as a fraction over baseline "
                 "(default: 0.5, i.e. fail past 1.5x)",
        )

    b_compare = bench_sub.add_parser(
        "compare", help="trend table vs a baseline (never fails the build)"
    )
    add_compare_args(b_compare)

    b_gate = bench_sub.add_parser(
        "gate", help="compare and exit non-zero on a gated regression"
    )
    add_compare_args(b_gate)

    b_baseline = bench_sub.add_parser(
        "baseline", help="promote a report into benchmarks/baselines/"
    )
    b_baseline.add_argument(
        "--from", dest="source", required=True,
        help="the BENCH json to promote",
    )
    b_baseline.add_argument(
        "--out", default=None,
        help="destination file (default: "
             "benchmarks/baselines/BENCH_<host-class>.json)",
    )
    b_baseline.add_argument(
        "--scale", type=float, default=1.0,
        help="scale every timing by this factor (0.5 synthesizes a "
             "baseline the current run regresses 2x against)",
    )

    pre = sub.add_parser(
        "prewarm",
        help="build and persist GlaResources for dataset/core combos",
    )
    add_cache_dir_arg(pre)
    pre.add_argument(
        "--datasets",
        default=",".join(PAPER_DATASETS),
        help="comma-separated dataset keys (default: all Table II)",
    )
    pre.add_argument(
        "--cores",
        default="16",
        help="comma-separated core counts (default: 16)",
    )
    pre.add_argument("--w-min", type=int, default=None, help="OAG pruning threshold")
    pre.add_argument("--d-max", type=int, default=None, help="chain depth bound")
    pre.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker processes (default: one per job, capped at CPUs)",
    )

    cache = sub.add_parser("cache", help="inspect or maintain the artifact store")
    cache.add_argument(
        "action", choices=("stats", "ls", "gc", "clear"), help="maintenance action"
    )
    add_cache_dir_arg(cache)
    cache.add_argument(
        "--max-mb", type=float, default=None,
        help="size bound for gc, in megabytes",
    )

    def add_endpoint_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1", help="service host")
        p.add_argument(
            "--port", type=int, default=None,
            help="service port (default: $REPRO_SERVICE_PORT, else "
                 "repro.service.DEFAULT_PORT)",
        )

    serve = sub.add_parser(
        "serve", help="run the long-lived simulation service"
    )
    add_endpoint_args(serve)
    add_cache_dir_arg(serve)
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission bound on queued jobs (default: 64)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="simulation worker processes per batch (default: auto)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock budget inside a worker, in seconds "
        "(a batch that plans to one shard runs inline and untimed)",
    )
    serve.add_argument(
        "--job-retries", type=int, default=1,
        help="re-dispatches before a failing job is reported failed",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.05,
        help="seconds to batch concurrent submissions (default: 0.05)",
    )
    serve.add_argument(
        "--stats-interval", type=float, default=0.0,
        help="print a stats line every N seconds (default: off)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-job log lines"
    )

    submit = sub.add_parser(
        "submit", help="submit one run to a running service"
    )
    submit.add_argument("--engine", default="ChGraph", choices=ENGINES)
    add_workload_args(submit)
    add_endpoint_args(submit)
    submit.add_argument(
        "--priority", type=int, default=0,
        help="queue priority (higher runs sooner; default: 0)",
    )
    submit.add_argument(
        "--profile", action="store_true",
        help="request an instrumented run (separate cache entry)",
    )
    submit.add_argument(
        "--check", action="store_true",
        help="request a checked run: the service re-executes the "
             "simulation under the invariant checker (never answered "
             "from the store)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the accepted job and return without waiting",
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=None,
        help="give up waiting after N seconds (exit 70)",
    )
    submit.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw job record as JSON instead of the summary table",
    )

    status = sub.add_parser(
        "status", help="job status by id, or the service overview"
    )
    status.add_argument(
        "job_id", nargs="?", default=None,
        help="job id from submit (omit for /healthz + /stats overview)",
    )
    add_endpoint_args(status)
    status.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print raw JSON instead of a table",
    )
    return parser


def _preprocess_spec(args: argparse.Namespace) -> PreprocessSpec:
    """The workload flags' preprocessing record (defaults where unset)."""
    defaults = PreprocessSpec()
    return PreprocessSpec(
        w_min=defaults.w_min if args.w_min is None else args.w_min,
        d_max=defaults.d_max if args.d_max is None else args.d_max,
        stages=tuple(StageSpec(name) for name in (args.preprocess or ())),
    )


def _workload_spec(args: argparse.Namespace, engine: str) -> RunSpec:
    """Build the :class:`RunSpec` the workload flags describe."""
    return RunSpec(
        engine=engine,
        algorithm=args.algorithm,
        dataset=args.dataset,
        config=scaled_config(num_cores=args.cores, llc_kb=args.llc_kb),
        pr_iterations=args.pr_iterations,
        preprocessing=_preprocess_spec(args),
    )


class _UsageError(Exception):
    """A bad entry in a comma-separated option; ``main`` exits 2."""


def _comma_list(text: str, what: str, valid: Callable[[str], bool]) -> list[str]:
    """The entries of a comma-separated option, each accepted by ``valid``.

    Raises :class:`_UsageError` naming every entry ``valid`` rejects, after
    ``what`` (e.g. ``"unknown engine(s)"``).
    """
    entries = [entry for entry in text.split(",") if entry]
    bad = [entry for entry in entries if not valid(entry)]
    if bad:
        raise _UsageError(f"{what}: {', '.join(bad)}")
    return entries


def _print_figure(figure_id: str, runner: Runner, results=None) -> str:
    title, headers, rows = render(FIGURES[figure_id], runner, results)
    text = render_table(headers, rows, title=title)
    print(text)
    return text


def _cmd_datasets(_: argparse.Namespace) -> int:
    _print_figure("table2", Runner())
    return 0


def _cmd_area(_: argparse.Namespace) -> int:
    _print_figure("vi_e", Runner())
    return 0


def _render_run_result(result) -> str:
    """The ``run`` summary table — shared verbatim by ``submit`` so a served
    result renders byte-identically to a local run."""
    rows = [
        ["engine", result.engine],
        ["algorithm", result.algorithm],
        ["dataset", result.dataset],
        ["iterations", result.iterations],
        ["cycles", result.cycles],
        ["DRAM accesses", result.dram_accesses],
        ["memory-stall fraction", result.memory_stall_fraction],
        *[
            [f"DRAM: {group}", count]
            for group, count in result.dram_by_group.items()
        ],
    ]
    return render_table(["Quantity", "Value"], rows, title="Run summary")


def _cmd_run(args: argparse.Namespace) -> int:
    runner = Runner()
    result = runner.run(_workload_spec(args, args.engine))
    print(_render_run_result(result))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    runner = Runner()
    config = scaled_config(num_cores=args.cores, llc_kb=args.llc_kb)
    baseline = runner.run(_workload_spec(args, "Hygra"))
    rows = []
    for engine in ("Hygra", "GLA", "ChGraph"):
        result = runner.run(_workload_spec(args, engine))
        rows.append([
            engine,
            result.cycles,
            result.dram_accesses,
            result.speedup_over(baseline),
            result.dram_reduction_over(baseline),
        ])
    print(
        render_table(
            ["System", "Cycles", "DRAM", "Speedup", "DRAM reduction"],
            rows,
            title=f"{args.algorithm} on {args.dataset} "
                  f"({config.num_cores} cores, {args.llc_kb}KB LLC)",
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    engines = _comma_list(args.engines, "unknown engine(s)", ENGINES.__contains__)
    runner = Runner()
    violations = 0
    for engine in engines:
        result = runner.run(
            _workload_spec(args, engine), profile=True, check=args.check,
        )
        label = f"{engine} — {args.algorithm} on {args.dataset}"
        if result.telemetry is None:
            print(f"{label}: no telemetry recorded", file=sys.stderr)
            return 1
        print(render_telemetry(result.telemetry, label))
        print()
        violations += len(result.telemetry.violations)
    if args.check:
        if violations:
            print(f"check: {violations} invariant violation(s)", file=sys.stderr)
            return 1
        print("check: all invariants held")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    ids = (
        list(FIGURES)
        if args.figures == "all"
        else _comma_list(
            args.figures, "unknown experiment id(s)", FIGURES.__contains__
        )
    )
    _check_seconds("--timeout", args.timeout)
    runner = Runner(cache_dir=args.cache_dir)
    results = runner.run_many(
        [spec for figure_id in ids for spec in FIGURES[figure_id].specs()],
        jobs=args.jobs, timeout=args.timeout, retries=args.retries,
        profile=args.profile or args.check, check=args.check,
    )
    for figure_id in ids:
        failures = FIGURES[figure_id].claim.failures(
            _print_figure(figure_id, runner, results)
        )
        print()
        verdict = "does not hold: " + "; ".join(failures) if failures else "holds"
        print(f"claim {figure_id}: {verdict}", file=sys.stderr)
    if args.profile:
        rows = []
        for spec, result in results.items():
            telemetry = result.telemetry
            if telemetry is None:
                continue
            by_phase = {
                name: profile.cycles
                for name, profile in telemetry.phases.items()
            }
            rows.append([
                spec.label(),
                by_phase.get("hyperedge", 0.0),
                by_phase.get("vertex", 0.0),
                telemetry.mean_frontier_density,
                result.dram_accesses,
            ])
        print(
            render_table(
                ["run", "hyperedge cyc", "vertex cyc", "mean density", "DRAM"],
                rows,
                title="Profile summary",
            )
        )
        print()
    report = runner.last_execution_report
    if report is not None:
        retried = len(report.retried())
        print(
            f"bench: {len(report.reports)} runs in {len(report.shards)} "
            f"shard(s), jobs={len(report.shards)}, "
            f"parallel={'yes' if report.parallel else 'no'}, "
            f"retried-inline={retried}, {report.seconds:.2f}s"
        )
    if runner.store is not None:
        stats = runner.store.stats
        if report is not None:
            # Workers write through their own copies of the store.
            stats = dataclasses.replace(
                stats, writes=stats.writes + report.worker_writes
            )
        print(f"cache: {stats} ({runner.store.root})")
    if args.check:
        violations = [
            f"{spec.label()}: {message}"
            for spec, result in results.items()
            if result.telemetry is not None
            for message in result.telemetry.violations
        ]
        if violations:
            print(
                f"check: {len(violations)} invariant violation(s)",
                file=sys.stderr,
            )
            for message in violations:
                print(f"  - {message}", file=sys.stderr)
            return 1
        print(f"check: all invariants held across {len(results)} runs")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    engines = None
    if args.engines:
        engines = _comma_list(
            args.engines, "unknown engine(s)", ENGINES.__contains__
        )
    algorithms = tuple(
        _comma_list(
            args.algorithms, "unknown algorithm(s)", ALGORITHMS.__contains__
        )
    )
    config = scaled_config(num_cores=args.cores, llc_kb=args.llc_kb)
    log = None if args.quiet else (lambda message: print(f"  {message}"))

    def sweep():
        return differential.run_differential(
            engines=engines,
            algorithms=algorithms,
            graph_count=args.graphs,
            base_seed=args.seed,
            config=config,
            ordering=not args.no_ordering,
            log=log,
        )

    if args.inject_fault is not None:
        print(f"check: injecting fault {args.inject_fault!r}")
        with differential.inject_fault(args.inject_fault):
            report = sweep()
    else:
        report = sweep()
    for message in report.skipped:
        print(f"  skip: {message}")
    for message in report.failures:
        print(f"  FAIL: {message}", file=sys.stderr)
    for message in report.violations:
        print(f"  VIOLATION: {message}", file=sys.stderr)
    print(report.summary())
    return 0 if report.ok else 1


#: Where committed per-host-class baselines live (repo-relative).
BASELINE_DIR = "benchmarks/baselines"


def _default_baseline_path():
    from pathlib import Path

    from repro.benchmark import report_filename

    return Path(BASELINE_DIR) / report_filename()


def _load_comparison(args: argparse.Namespace):
    """Shared by ``benchmark compare`` and ``benchmark gate``."""
    from pathlib import Path

    from repro import benchmark
    from repro.errors import BenchmarkError

    baseline_path = (
        Path(args.baseline) if args.baseline else _default_baseline_path()
    )
    if not baseline_path.exists():
        raise BenchmarkError(
            f"no baseline at {baseline_path} — run "
            f"`repro benchmark baseline --from <BENCH json>` first, or pass "
            f"--baseline"
        )
    current = benchmark.load_report(args.current)
    baseline = benchmark.load_report(baseline_path)
    threshold = (
        benchmark.DEFAULT_GATE_THRESHOLD
        if args.threshold is None
        else args.threshold
    )
    comparisons = benchmark.compare_reports(current, baseline, threshold)
    title = (
        f"Benchmark trend — {current['host_class']} "
        f"(gate at >{1.0 + threshold:.2f}x, CI-separated)"
    )
    return comparisons, title


def _cmd_benchmark(args: argparse.Namespace) -> int:
    from repro import benchmark
    from repro.benchmark.trend import measurements_table, trend_table

    if args.benchmark_command == "run":
        benchmark.load_default_probes()
        names = (
            list(benchmark.probe_names())
            if args.probes == "all"
            else [p for p in args.probes.split(",") if p]
        )
        measurements = []
        for name in names:
            probe = benchmark.get_probe(name)
            print(f"benchmark: measuring {name} ...", file=sys.stderr)
            measurements.append(
                benchmark.measure_probe(
                    probe, repeats=args.repeats, warmup=args.warmup
                )
            )
        report = benchmark.build_report(
            measurements, repeats=args.repeats, warmup=args.warmup
        )
        path = benchmark.write_report(report, args.out_dir)
        print(
            measurements_table(
                measurements, str(report["host_class"]), args.repeats
            )
        )
        print(f"wrote {path}")
        return 0

    if args.benchmark_command in ("compare", "gate"):
        comparisons, title = _load_comparison(args)
        print(trend_table(comparisons, title))
        failures = benchmark.gate_failures(comparisons)
        if args.benchmark_command == "gate" and failures:
            print(
                f"benchmark gate: {len(failures)} regression(s): "
                + ", ".join(c.name for c in failures),
                file=sys.stderr,
            )
            return 1
        if failures:
            print(
                f"note: {len(failures)} probe(s) would fail the gate",
                file=sys.stderr,
            )
        return 0

    # baseline: promote (optionally scaled) into the committed directory.
    from pathlib import Path

    report = benchmark.load_report(args.source)
    if args.scale != 1.0:
        report = benchmark.scale_report(report, args.scale)
    out = Path(args.out) if args.out else (
        Path(BASELINE_DIR) / benchmark.report_filename(str(report["host_class"]))
    )
    benchmark.write_report(report, out.parent, filename=out.name)
    scaled = "" if args.scale == 1.0 else f" (timings x{args.scale})"
    print(f"baseline: {args.source} -> {out}{scaled}")
    return 0


def _open_store(args: argparse.Namespace) -> ArtifactStore | None:
    root = resolve_cache_dir(args.cache_dir)
    if root is None:
        print(
            "no artifact store configured: pass --cache-dir or set "
            "$REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return None
    return ArtifactStore(root)


def _cmd_prewarm(args: argparse.Namespace) -> int:
    datasets = _comma_list(
        args.datasets, "unknown dataset(s)", DATASETS.__contains__
    )
    core_counts = [
        int(count)
        for count in _comma_list(
            args.cores,
            "core counts must be positive ints, got",
            lambda count: count.isdecimal() and int(count) > 0,
        )
    ]
    store = _open_store(args)
    if store is None:
        return 2
    kwargs = {}
    if args.w_min is not None:
        kwargs["w_min"] = args.w_min
    if args.d_max is not None:
        kwargs["d_max"] = args.d_max
    jobs = prewarm_jobs(datasets, core_counts, **kwargs)
    reports = prewarm(store.root, jobs, workers=args.workers)
    rows = [
        [
            r.job.dataset,
            r.job.num_cores,
            "built" if r.built else "cached",
            round(r.seconds, 3),
            round(r.payload_bytes / 1024, 1),
            r.key[:12],
        ]
        for r in reports
    ]
    print(
        render_table(
            ["Dataset", "Cores", "Status", "Seconds", "KB", "Key"],
            rows,
            title=f"Prewarmed {len(reports)} artifact(s) into {store.root}",
        )
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 2
    if args.action == "stats":
        entries = store.ls()
        by_kind: dict[str, int] = {}
        for entry in entries:
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
        rows = [
            ["root", str(store.root)],
            ["entries", len(entries)],
            *[[f"entries: {kind}", count] for kind, count in sorted(by_kind.items())],
            ["disk KB", round(store.disk_bytes() / 1024, 1)],
        ]
        print(render_table(["Quantity", "Value"], rows, title="Artifact store"))
    elif args.action == "ls":
        rows = [
            [e.kind, e.key, round(e.size_bytes / 1024, 1)] for e in store.ls()
        ]
        print(
            render_table(
                ["Kind", "Key", "KB"], rows,
                title=f"Artifact store — {store.root}",
            )
        )
    elif args.action == "gc":
        if args.max_mb is None:
            print("cache gc requires --max-mb", file=sys.stderr)
            return 2
        if not 0 <= args.max_mb < math.inf:
            raise _UsageError(f"--max-mb must be a size >= 0, got {args.max_mb}")
        evicted = store.gc(int(args.max_mb * 1024 * 1024))
        print(f"evicted {evicted} entr{'y' if evicted == 1 else 'ies'}")
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def _check_seconds(option: str, seconds: float | None) -> None:
    """Exit 2 unless an optional time budget is a finite number > 0."""
    if seconds is not None and not 0 < seconds < math.inf:
        raise _UsageError(f"{option} must be seconds > 0, got {seconds}")


def _service_port(args: argparse.Namespace) -> int:
    """``--port``, else ``$REPRO_SERVICE_PORT``, else the service default;
    exit 2 unless it is an integer port 0-65535."""
    from repro.service.server import DEFAULT_PORT

    if args.port is not None:
        port, source = args.port, f"--port {args.port}"
    else:
        text = os.environ.get("REPRO_SERVICE_PORT", str(DEFAULT_PORT))
        port = int(text) if text.isdecimal() else -1
        source = f"REPRO_SERVICE_PORT={text!r}"
    if not 0 <= port <= 65535:
        raise _UsageError(f"{source} is not an integer port 0-65535")
    return port


def _client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(host=args.host, port=_service_port(args))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import SchedulerConfig, ServiceConfig, SimulationService

    _check_seconds("--job-timeout", args.job_timeout)
    root = resolve_cache_dir(args.cache_dir)
    config = ServiceConfig(
        host=args.host,
        port=_service_port(args),
        cache_dir=None if root is None else str(root),
        max_depth=args.max_queue,
        scheduler=SchedulerConfig(
            workers=args.workers,
            job_timeout=args.job_timeout,
            job_retries=args.job_retries,
            batch_window=args.batch_window,
        ),
        stats_interval=args.stats_interval,
    )

    def log(message: str) -> None:
        # The listening banner must always surface (scripts parse the
        # bound port from it); per-job chatter is opt-out via --quiet.
        if not args.quiet or message.startswith(("repro-serve", "drained")):
            print(message, flush=True)

    service = SimulationService(config, log=log)
    asyncio.run(service.run())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.service import JobRequest, ServiceClient

    # The spec `repro run` builds, so a served result equals a local one.
    spec = dataclasses.replace(
        _workload_spec(args, args.engine), profile=args.profile, check=args.check
    )
    request = JobRequest(spec, args.priority)
    client = _client(args)
    if args.no_wait:
        job = client.submit(request)
        if args.as_json:
            print(json_module.dumps(job))
        else:
            print(f"{job['job_id']} {job['state']} ({request.label()})")
        return 0
    job = client.run(request, timeout=args.wait_timeout)
    if args.as_json:
        print(json_module.dumps(job))
        return 0
    print(_render_run_result(ServiceClient.run_result(job)))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json as json_module

    client = _client(args)
    if args.job_id is not None:
        job = client.status(args.job_id)
        if args.as_json:
            print(json_module.dumps(job))
            return 0
        rows = [
            [field, "" if job.get(field) is None else job[field]]
            for field in (
                "job_id", "state", "key", "attempts", "served_from",
                "coalesced_into", "latency", "error",
            )
        ]
        spec = job["request"]["spec"]
        rows[2:2] = [[
            "request",
            f"{spec.get('engine')}/{spec.get('algorithm')}/"
            f"{spec.get('dataset')}",
        ]]
        print(render_table(["Field", "Value"], rows, title=f"Job {job['job_id']}"))
        return 0 if job["state"] != "failed" else 1
    health = client.health()
    stats = client.stats()
    if args.as_json:
        print(json_module.dumps({"healthz": health, "stats": stats}))
        return 0
    rows = [[key, value] for key, value in health.items()]
    rows += [
        [key, value] for key, value in stats.items() if key != "latency"
    ]
    rows += [
        [f"latency {key}", round(value, 4)]
        for key, value in stats["latency"].items()
    ]
    print(render_table(
        ["Quantity", "Value"], rows,
        title=f"Service at {client.host}:{client.port}",
    ))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    :class:`~repro.errors.ReproError` subclasses exit with their class's
    ``exit_code`` and a one-line message instead of a traceback, so shells
    and supervisors can distinguish e.g. a retryable overload (75) from a
    missing job (66).
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "area": _cmd_area,
        "benchmark": _cmd_benchmark,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "profile": _cmd_profile,
        "check": _cmd_check,
        "bench": _cmd_bench,
        "prewarm": _cmd_prewarm,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
