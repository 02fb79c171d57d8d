"""Smoke test of the benchmark at reduced size (about 20 s).

    python3 -m pytest perf/test_perf_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def git_status() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    ).stdout


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("perf")
    before = git_status()
    proc = run_benchmark("--smoke", "--seed", "1", "--seconds", "1", "--out-dir", str(out_dir))
    return proc, out_dir, before


def test_every_metric_is_printed_with_unit_and_samples(smoke_run):
    proc, out_dir, _ = smoke_run
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(BENCHMARK.read_text())
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in (w["name"] for w in bench["workloads"]):
        result = json.loads((out_dir / f"{workload}-seed1.json").read_text())
        assert len(result["sim_digest"]) == 64
        for section in ("end_to_end", "per_layer"):
            for spec in bench[section]:
                if spec["name"].startswith(("trace.", "profile.")):
                    continue
                metric = result[section][spec["name"]]
                assert metric["unit"] == spec["unit"]
                assert isinstance(metric["samples"], int)
        for spec in bench["end_to_end"]:
            assert last["metrics"][f"{workload}/{spec['name']}"]["value"] > 0
    for spec in bench["end_to_end"]:
        assert any(
            line.split()[:1] == [spec["name"]] and spec["unit"] in line and "n=" in line
            for line in proc.stdout.splitlines()
        )


def test_run_leaves_the_checkout_clean(smoke_run):
    proc, _, before = smoke_run
    assert proc.returncode == 0, proc.stderr
    if before is None:
        pytest.skip("not a git checkout")
    assert git_status() == before


def test_perturbed_result_counts_as_failed(tmp_path):
    proc = run_benchmark(
        "--smoke", "--seed", "1", "--seconds", "1", "--workload", "eval-matrix",
        "--inject-fault", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert not last["correct"] and last["failed"] >= 1
    assert "FAILED" in proc.stdout


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    proc = run_benchmark(
        "--smoke", "--seed", "2", "--seconds", "1", "--workload", "llc-sweep",
        "--trace", "1", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(BENCHMARK.read_text())
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in bench["per_layer"]}
    spans = (tmp_path / "llc-sweep-seed2-trace.spans.jsonl").read_text().splitlines()
    assert {"name", "start", "end", "parent", "workload", "cell", "round"} <= set(
        json.loads(spans[0])
    )
    assert last["metrics"]["profile.sim_share"]["value"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--seed", "1", "--workload", "eval-matrix", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
