"""Schema-versioned ``BENCH_<host-class>.json`` artifacts.

Reports are written with the artifact store's discipline — payload lands
via atomic tmp+rename, then a sha256 manifest sidecar follows — so a
half-written report can never be mistaken for a measurement, and CI can
verify an uploaded artifact byte-for-byte.  The host class (platform,
machine, Python major.minor, CPU count) is part of the filename because
absolute timings are only comparable within one host class; gating across
classes would gate on hardware, not code.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.benchmark.measure import Measurement
from repro.errors import BenchmarkError
from repro.store.store import ArtifactStore

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "build_report",
    "host_class",
    "load_report",
    "report_filename",
    "scale_report",
    "write_report",
]

#: Bump when the report layout changes; the comparison layer refuses to
#: gate across schema versions instead of misreading old fields.
BENCH_SCHEMA_VERSION = 1

#: Per-probe timing fields a synthetic scale factor applies to.
_TIMING_FIELDS = ("best_s", "mean_s", "ci_lower_s", "ci_upper_s")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_class() -> str:
    """The comparability class measurements belong to.

    Example: ``linux-x86_64-py3.11-8cpu``.  Deliberately excludes
    hostnames and exact CPU models: two CI runners of the same shape must
    share a class, or every baseline would be single-use.
    """
    return (
        f"{sys.platform}-{platform.machine() or 'unknown'}"
        f"-py{sys.version_info.major}.{sys.version_info.minor}"
        f"-{_usable_cpus()}cpu"
    )


def report_filename(host: str | None = None) -> str:
    return f"BENCH_{host_class() if host is None else host}.json"


def build_report(
    measurements: list[Measurement],
    repeats: int,
    warmup: int,
    host: str | None = None,
) -> dict[str, object]:
    """Assemble the JSON document for one measurement session."""
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "bench-report",
        "host_class": host_class() if host is None else host,
        "created_unix": time.time(),
        "repeats": repeats,
        "warmup": warmup,
        "probes": {m.name: m.as_json() for m in measurements},
    }


def write_report(
    report: dict[str, object],
    directory: str | Path,
    filename: str | None = None,
) -> Path:
    """Atomically persist ``report`` plus its sha256 manifest sidecar.

    Returns the payload path; ``filename`` defaults to
    ``BENCH_<host-class>.json`` for the report's own host class.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        filename
        if filename is not None
        else report_filename(str(report["host_class"]))
    )
    payload = json.dumps(report, indent=2, sort_keys=True).encode("utf-8")
    checksum, size = ArtifactStore._atomic_write(path, [payload])
    manifest = {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "bench-report",
        "checksum": checksum,
        "size": size,
    }
    ArtifactStore._atomic_write(
        path.with_name(path.name + ".manifest"),
        [json.dumps(manifest).encode("utf-8")],
    )
    return path


def load_report(path: str | Path, verify: bool = True) -> dict[str, object]:
    """Load one report, verifying schema and (when present) its manifest.

    A missing manifest is tolerated — hand-edited baselines are legitimate
    — but a *mismatching* one means truncation or tampering and is fatal.
    """
    path = Path(path)
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise BenchmarkError(f"cannot read bench report {path}: {exc}") from exc
    try:
        report = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise BenchmarkError(f"corrupt bench report {path}: {exc}") from exc
    if verify:
        manifest_path = path.with_name(path.name + ".manifest")
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_bytes())
            except (OSError, ValueError) as exc:
                raise BenchmarkError(
                    f"unreadable bench manifest {manifest_path}: {exc}"
                ) from exc
            if manifest.get("checksum") != ArtifactStore._checksum(payload):
                raise BenchmarkError(
                    f"bench report {path} fails its manifest checksum"
                )
    if report.get("kind") != "bench-report":
        raise BenchmarkError(f"{path} is not a bench report")
    if report.get("schema") != BENCH_SCHEMA_VERSION:
        raise BenchmarkError(
            f"bench report {path} has schema {report.get('schema')!r}, "
            f"expected {BENCH_SCHEMA_VERSION}"
        )
    return report


def scale_report(
    report: dict[str, object], factor: float
) -> dict[str, object]:
    """A copy of ``report`` with every timing scaled by ``factor``.

    The CI smoke job uses ``factor=0.5`` to synthesize a baseline against
    which the *current* run is a 2x regression, proving the gate fires.
    """
    if factor <= 0:
        raise BenchmarkError("scale factor must be positive")
    scaled = json.loads(json.dumps(report))
    for probe in scaled["probes"].values():
        for field in _TIMING_FIELDS:
            probe[field] = probe[field] * factor
        probe["samples_s"] = [s * factor for s in probe["samples_s"]]
    return scaled
