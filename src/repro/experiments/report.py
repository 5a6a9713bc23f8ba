"""Plain-text rendering of experiment outputs — the "figures" of this
reproduction are printed tables/series matching what the paper plots."""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.experiments.calibration import CalibrationPoint
from repro.experiments.comparison import ComparisonResult
from repro.experiments.probing_sweep import ProbingSweepResult

__all__ = [
    "ascii_table",
    "render_calibration",
    "render_comparison",
    "render_probing_sweep",
    "render_ecdf_points",
]


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Minimal fixed-width table renderer."""
    str_rows = [[_fmt_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def render_calibration(points: Sequence[CalibrationPoint]) -> str:
    """Fig. 3 as a table."""
    rows = [
        (
            f"{p.utilization*100:.0f}%",
            f"{p.mean_max_qdepth:.1f}",
            p.peak_qdepth,
            f"{p.mean_rtt*1e3:.1f}",
            p.qdepth_samples,
        )
        for p in points
    ]
    return ascii_table(
        ["utilization", "mean max queue (pkts)", "peak queue", "mean RTT (ms)", "samples"],
        rows,
    )


def render_comparison(result: ComparisonResult, measure: str = "completion") -> str:
    """Figs. 5/6/7 as a table (left panel = times, right panel = gain)."""
    rows = [
        (label, f"{aware:.2f}", f"{nearest:.2f}", f"{rand:.2f}", f"{gain:+.1f}%")
        for label, aware, nearest, rand, gain in result.as_rows(measure)
    ]
    return ascii_table(
        ["class", f"aware {measure} (s)", "nearest (s)", "random (s)", "gain vs nearest"],
        rows,
    )


def render_probing_sweep(results: Sequence[ProbingSweepResult]) -> str:
    """Fig. 9 as a table: one column per scenario."""
    if not results:
        return "(no sweeps)"
    intervals = results[0].intervals()
    headers = ["probing interval (s)"] + [r.scenario for r in results]
    rows = []
    for interval in intervals:
        row: List[object] = [interval]
        for sweep in results:
            row.append(f"{sweep.mean_transfer_time(interval):.2f}s")
        rows.append(row)
    return ascii_table(headers, rows)


def render_ecdf_points(
    gains: Sequence[float], thresholds: Sequence[float] = (-0.2, 0.0, 0.2, 0.4, 0.6)
) -> str:
    """Fig. 8 as the fraction of tasks at or below selected gain levels."""
    import numpy as np

    arr = np.asarray(gains, dtype=float)
    rows = [
        (f"gain <= {t*100:+.0f}%", f"{float(np.mean(arr <= t))*100:.1f}% of tasks")
        for t in thresholds
    ]
    return ascii_table(["threshold", "cumulative fraction"], rows)
