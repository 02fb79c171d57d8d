"""Fixed-width table rendering for benchmark output, and reading it back."""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.sim.telemetry import RunTelemetry

__all__ = [
    "render_table",
    "parse_table",
    "format_value",
    "with_bars",
    "render_phase_profile",
    "render_iteration_timeline",
    "render_telemetry",
]


def format_value(value: object) -> str:
    """Human-friendly cell formatting: floats get 2-3 significant decimals."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width text table (what each bench prints)."""
    cells = [[format_value(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


_CELL_GAP = re.compile(" {2,}")
_INT_CELL = re.compile(r"-?\d{1,3}(,\d{3})*")
_FLOAT_CELL = re.compile(r"-?\d+\.\d+")


def _parse_cell(cell: str) -> Any:
    if _INT_CELL.fullmatch(cell):
        return int(cell.replace(",", ""))
    return float(cell) if _FLOAT_CELL.fullmatch(cell) else cell


def parse_table(text: str) -> tuple[str, list[str], list[list[Any]]]:
    """Read a titled :func:`render_table` text back as ``(title, headers,
    rows)``: cells split on runs of two or more spaces, numbers back to
    ``int``/``float``.

    Data cells are right-aligned, so a data line ending in a space has an
    empty last cell (an empty bar); the header line's trailing padding says
    nothing.  The widest row sets the column count, and shorter rows and
    headers are padded with ``""``.  Not an exact inverse of
    :func:`format_value`: 0.9996 reads back as 1.0, the value as printed.
    """
    title, header, _rule, *body = text.strip("\n").split("\n")
    headers = _CELL_GAP.split(header.strip())
    rows = [
        [_parse_cell(cell) for cell in _CELL_GAP.split(line.strip())]
        + ([""] if line.endswith(" ") else [])
        for line in body
    ]
    width = max([len(headers), *map(len, rows)])
    return (
        title,
        headers + [""] * (width - len(headers)),
        [row + [""] * (width - len(row)) for row in rows],
    )


def with_bars(
    rows: Sequence[Sequence[object]],
    value_index: int,
    width: int = 28,
) -> list[list[object]]:
    """Append a proportional bar column visualizing ``rows[*][value_index]``.

    Turns a regenerated table into something shaped like the paper's bar
    charts: the largest value spans ``width`` characters, the rest scale.
    A positive value always gets at least one character so tiny bars stay
    visible; zero and negative values render an *empty* bar — "0 accesses"
    must not look nonzero.
    """
    values = [float(row[value_index]) for row in rows]
    peak = max(values, default=0.0)
    out = []
    for row, value in zip(rows, values):
        if peak > 0 and value > 0:
            bar = "#" * max(1, round(width * value / peak))
        else:
            bar = ""
        out.append([*row, bar])
    return out


# -- telemetry rendering ------------------------------------------------------


def render_phase_profile(telemetry: "RunTelemetry", title: str) -> str:
    """Per-phase-kind cycles / access / DRAM table for one profiled run."""
    rows = []
    for profile in telemetry.phases.values():
        rows.append([
            profile.phase,
            profile.activations,
            profile.cycles,
            profile.compute_cycles,
            profile.engine_cycles,
            sum(profile.accesses.values()),
            profile.dram_accesses,
            profile.dram_writebacks,
        ])
    return render_table(
        ["phase", "runs", "cycles", "compute", "engine", "accesses", "DRAM",
         "WB"],
        rows,
        title=title,
    )


def render_iteration_timeline(telemetry: "RunTelemetry", title: str) -> str:
    """Per-iteration frontier size/density and phase cost timeline."""
    rows = []
    for iteration in telemetry.iterations:
        for sample in iteration.phases:
            rows.append([
                iteration.iteration,
                sample.phase,
                sample.frontier_size,
                sample.frontier_density,
                sample.cycles,
                sample.dram_accesses,
            ])
    return render_table(
        ["iter", "phase", "frontier", "density", "cycles", "DRAM"],
        rows,
        title=title,
    )


def render_telemetry(telemetry: "RunTelemetry", label: str) -> str:
    """The full ``repro profile`` block for one engine's run."""
    blocks = [
        render_phase_profile(telemetry, f"{label}: per-phase breakdown"),
        render_iteration_timeline(telemetry, f"{label}: iteration timeline"),
    ]
    extras = []
    if telemetry.chain_stats:
        extras.append(
            "chains: " + ", ".join(
                f"{key}={format_value(value)}"
                for key, value in sorted(telemetry.chain_stats.items())
            )
        )
    if telemetry.fifo:
        extras.append(
            "fifo: " + ", ".join(
                f"{key}={format_value(value)}"
                for key, value in sorted(telemetry.fifo.items())
            )
        )
    if telemetry.violations:
        extras.append(
            f"INVARIANT VIOLATIONS ({len(telemetry.violations)}):\n"
            + "\n".join(f"  - {message}" for message in telemetry.violations)
        )
    if extras:
        blocks.append("\n".join(extras))
    return "\n\n".join(blocks)
