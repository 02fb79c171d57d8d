"""Tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import ENGINES, build_parser, main
from repro.harness.experiments import FIGURES, Claim

RESULTS = Path(__file__).resolve().parents[2] / "results"


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_engine():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--engine", "nope"])


def test_experiment_registry_covers_all_figures():
    expected = {
        "table1", "table2", "vi_e", "summary",
        *{f"fig{n:02d}" for n in (2, 3, 5, 7, 8, 14, 15, 16, 17, 18, 19,
                                   20, 21, 22, 23, 24, 25)},
        *{f"ablation_{name}" for name in (
            "amortization", "chain_cache", "coherence", "cycle_model",
            "energy", "interleaving", "partitioning", "pull", "wmin_storage",
        )},
    }
    assert set(FIGURES) == expected


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    for key in ("FS", "OK", "LJ", "WEB", "OG"):
        assert key in out


def test_area_command(capsys):
    assert main(["area"]) == 0
    out = capsys.readouterr().out
    assert "0.095 mm2" in out
    assert "0.26%" in out


def test_run_command_small(capsys):
    code = main([
        "run", "--engine", "Hygra", "--algorithm", "BFS", "--dataset", "FS",
        "--cores", "4", "--llc-kb", "2", "--pr-iterations", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Run summary" in out
    assert "DRAM accesses" in out


def test_compare_command_small(capsys):
    code = main([
        "compare", "--algorithm", "BFS", "--dataset", "FS",
        "--cores", "4", "--llc-kb", "2", "--pr-iterations", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Hygra" in out and "ChGraph" in out and "Speedup" in out


def test_bench_rejects_unknown_figures(capsys):
    assert main(["bench", "--figures", "fig99", "--jobs", "1"]) == 2
    assert "fig99" in capsys.readouterr().err


def test_bench_without_store_warns_and_degrades(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["bench", "--figures", "table1,vi_e"]) == 0
    captured = capsys.readouterr()
    # stdout is exactly the committed tables; each verdict goes to stderr.
    assert captured.out == "".join(
        (RESULTS / f"{figure_id}.txt").read_text(encoding="utf-8") + "\n"
        for figure_id in ("table1", "vi_e")
    )
    assert captured.err.splitlines() == ["claim table1: holds", "claim vi_e: holds"]


def test_bench_names_the_conditions_a_table_fails(capsys, monkeypatch):
    claim = Claim({"holds": lambda r: True, "a": lambda r: False, "b": lambda r: False})
    monkeypatch.setitem(FIGURES, "vi_e", dataclasses.replace(FIGURES["vi_e"], claim=claim))
    assert main(["bench", "--figures", "vi_e", "--jobs", "1"]) == 0
    assert capsys.readouterr().err == "claim vi_e: does not hold: a; b\n"


def test_bench_parallel_smoke(capsys, tmp_path, monkeypatch):
    """A tiny two-job bench run completes and reports its shard plan."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    # fig02's matrix is three PR-on-WEB runs: small enough for a test,
    # real enough to cross the executor's parallel path.
    code = main([
        "bench", "--figures", "fig02", "--jobs", "2", "--timeout", "300",
        "--cache-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "bench:" in out and "parallel=yes" in out
    assert "cache:" in out


@pytest.mark.parametrize(
    "argv, option",
    [
        (["bench", "--figures", "fig02", "--jobs", "2", "--timeout", "-1"],
         "--timeout"),
        (["bench", "--figures", "fig02", "--timeout", "0"], "--timeout"),
        (["serve", "--job-timeout", "0"], "--job-timeout"),
        (["serve", "--job-timeout", "nan"], "--job-timeout"),
        (["cache", "gc", "--max-mb", "-1"], "--max-mb"),
        (["bench", "--figures", "fig02", "--jobs", "0"], "--jobs"),
        (["prewarm", "--datasets", "FS", "--workers", "0"], "--workers"),
        (["serve", "--max-queue", "0"], "--max-queue"),
        (["serve", "--workers", "-2"], "--workers"),
        (["serve", "--job-retries", "-1"], "--job-retries"),
    ],
)
def test_nonsense_numbers_exit_2(capsys, tmp_path, monkeypatch, argv, option):
    """Rejected before anything runs, binds or evicts.  A ``serve`` that
    let its nonsense through would serve until killed: its service is a
    stub that fails the case at once instead."""
    import repro.service

    def serve(*args, **kwargs):
        raise AssertionError(f"serve built its service despite {option}")

    monkeypatch.setattr(repro.service, "SimulationService", serve)
    store = tmp_path / "store"
    main(["prewarm", "--cache-dir", str(store), "--datasets", "FS",
          "--cores", "4", "--workers", "1"])
    entries = sorted(store.rglob("*"))
    capsys.readouterr()
    assert main([*argv, "--cache-dir", str(store)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and option in err
    assert sorted(store.rglob("*")) == entries


def test_a_check_of_no_graphs_exits_2(capsys):
    """A sweep over no graphs would check nothing and pass."""
    assert main(["check", "--graphs", "0", "--no-ordering"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--graphs" in captured.err


def test_a_one_job_bench_looks_each_run_up_once(capsys, tmp_path):
    """A one-shard plan computes its misses without looking them up again,
    so fig19 on a fresh store counts as two jobs do: WEB, its four runs and
    one resources artifact miss once each."""
    argv = ["bench", "--figures", "fig19", "--jobs", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "cache: 0 hits, 6 misses, 6 writes," in capsys.readouterr().out


@pytest.mark.parametrize("value", ["abc", "-1", "65536", ""])
def test_a_bad_service_port_variable_fails_only_service_commands(
    capsys, monkeypatch, value
):
    monkeypatch.setenv("REPRO_SERVICE_PORT", value)
    assert main(["area"]) == 0
    capsys.readouterr()
    assert main(["status"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "REPRO_SERVICE_PORT" in err


def test_cache_commands_require_a_store(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["cache", "stats"]) == 2
    assert "REPRO_CACHE_DIR" in capsys.readouterr().err


def test_prewarm_and_cache_lifecycle(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code = main([
        "prewarm", "--cache-dir", cache,
        "--datasets", "WEB", "--cores", "4", "--workers", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "built" in out

    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "resources" in out

    assert main(["cache", "ls", "--cache-dir", cache]) == 0
    assert "resources" in capsys.readouterr().out

    assert main(["cache", "gc", "--cache-dir", cache]) == 2  # needs --max-mb
    capsys.readouterr()
    assert main(["cache", "gc", "--cache-dir", cache, "--max-mb", "0"]) == 0
    assert "evicted 2" in capsys.readouterr().out  # the resources and WEB

    assert main(["cache", "clear", "--cache-dir", cache]) == 0
    assert "removed 0" in capsys.readouterr().out


def test_experiment_reports_cache_stats_when_enabled(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["bench", "--figures", "fig21", "--jobs", "1"]) == 0
    cold = capsys.readouterr().out
    # Five datasets and their five resources.
    assert "cache:" in cold and "10 writes" in cold
    assert main(["bench", "--figures", "fig21", "--jobs", "1"]) == 0
    warm = capsys.readouterr().out
    assert "10 hits" in warm and "0 misses" in warm


#: ``repro bench`` on a fig02 cut to BFS on FS (three runs), in a fresh
#: interpreter; prints the simulator modules it loaded.
_SMALL_BENCH = """
import dataclasses, sys
from repro.harness.experiments import FIGURES
FIGURES["fig02"] = dataclasses.replace(
    FIGURES["fig02"], apps=("BFS",), datasets=("FS",)
)
from repro.cli import main
code = main(["bench", "--figures", "fig02", "--jobs", "1", "--cache-dir", sys.argv[1]])
print("loaded:", *(name for name in sys.argv[2:] if name in sys.modules))
sys.exit(code)
"""

#: What a bench answered from the store must not load.
_SIMULATOR_MODULES = (
    "repro.sim.hierarchy", "repro.engine.base", "repro.algorithms.base",
    "repro.chgraph.engine", "repro.harness.parallel", "repro.store.pool",
    "multiprocessing", "importlib.metadata",
)


def test_a_warm_bench_reads_the_store_and_loads_no_simulator(tmp_path):
    env = {**os.environ, "REPRO_BENCH_FULL": ""}
    command = [sys.executable, "-c", _SMALL_BENCH, str(tmp_path), *_SIMULATOR_MODULES]
    cold, warm = (
        subprocess.run(command, capture_output=True, text=True, env=env, check=True)
        for _ in range(2)
    )
    assert "cache: 4 hits, 0 misses, 0 writes," in warm.stdout  # FS, 3 runs
    assert warm.stdout.splitlines()[-1] == "loaded:"

    def table(out: str) -> list[str]:
        return [
            line for line in out.splitlines()
            if not line.startswith(("bench:", "cache:", "loaded:"))
        ]

    assert table(warm.stdout) == table(cold.stdout)
    assert "Figure 2: main-memory accesses, BFS on FS" in warm.stdout


def test_parser_lists_registry_engines():
    from repro.engine import engine_names

    assert ENGINES == engine_names()
    for name in ("Hygra-pull", "Hygra-interleaved"):
        args = build_parser().parse_args(["run", "--engine", name])
        assert args.engine == name


def test_profile_command_small(capsys):
    code = main([
        "profile", "--algorithm", "BFS", "--dataset", "FS",
        "--cores", "4", "--llc-kb", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for engine in ("Hygra", "GLA", "ChGraph"):
        assert f"{engine} — BFS on FS: per-phase breakdown" in out
        assert f"{engine} — BFS on FS: iteration timeline" in out
    assert "hyperedge" in out and "vertex" in out
    assert "chains:" in out  # GLA/ChGraph chain statistics
    assert "fifo: chain_fifo_depth=" in out  # ChGraph FIFO occupancy


def test_profile_command_rejects_unknown_engine(capsys):
    assert main([
        "profile", "--engines", "NotAnEngine",
        "--algorithm", "BFS", "--dataset", "FS",
    ]) == 2
    assert "unknown engine" in capsys.readouterr().err


def test_bench_profile_summary(capsys, tmp_path):
    code = main([
        "bench", "--figures", "fig21", "--profile",
        "--cache-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Profile summary" in out
    assert "mean density" in out


def test_check_command_clean(capsys):
    code = main([
        "check", "--graphs", "1", "--engines", "Hygra,GLA,ChGraph",
        "--algorithms", "CC", "--no-ordering", "--quiet",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "differential: OK" in out


def test_check_command_detects_injected_fault(capsys):
    code = main([
        "check", "--graphs", "1", "--engines", "Hygra,ChGraph",
        "--algorithms", "CC", "--no-ordering", "--quiet",
        "--inject-fault", "lost-writeback",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "differential: FAIL" in captured.out
    assert "VIOLATION" in captured.err


def test_check_command_rejects_unknown_names(capsys):
    assert main(["check", "--engines", "NoSuchEngine", "--quiet"]) == 2
    assert main(["check", "--algorithms", "NoSuchAlgo", "--quiet"]) == 2


@pytest.mark.parametrize(
    "option, value, bad",
    [
        ("--datasets", "WEB,NOPE", "NOPE"),
        ("--cores", "4,0", "0"),
        ("--cores", "x", "x"),
    ],
)
def test_prewarm_rejects_bad_list_entries(capsys, tmp_path, option, value, bad):
    assert main([
        "prewarm", "--cache-dir", str(tmp_path), option, value,
    ]) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f": {bad}")
    assert not any(tmp_path.iterdir())  # nothing built


def test_profile_check_flag_clean(capsys):
    code = main([
        "profile", "--engines", "Hygra", "--algorithm", "BFS",
        "--dataset", "OG", "--cores", "2", "--llc-kb", "2", "--check",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "check: all invariants held" in out
