"""Experiment result structures and text rendering.

Every experiment returns an :class:`ExperimentResult`: a set of rows, each
pairing a measured value with the paper's reported value (when the paper
reports one), plus optional time series for figures. ``render()`` prints
the same rows the paper's table/figure reports, with a paper-vs-measured
column — the format EXPERIMENTS.md records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["Row", "Series", "ExperimentResult"]


@dataclass
class Row:
    """One reported quantity."""

    label: str
    measured: float
    unit: str = ""
    #: the paper's value for the same cell (None when the paper gives no
    #: number, e.g. qualitative immunity claims)
    paper: Optional[float] = None
    note: str = ""

    @property
    def ratio(self) -> float:
        """measured / paper (nan when no paper value)."""
        if self.paper in (None, 0):
            return math.nan
        return self.measured / self.paper


@dataclass
class Series:
    """A figure's data series."""

    name: str
    x: np.ndarray
    y: np.ndarray
    x_label: str = "time (s)"
    y_label: str = ""

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape:
            raise ValueError("series x and y must have equal length")


@dataclass
class ExperimentResult:
    """Everything one table/figure reproduction produced."""

    exp_id: str
    title: str
    rows: list[Row] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: trailing summary lines (tracer-ring health, SLO verdicts...) printed
    #: after the notes. Deliberately NOT part of the golden digest
    #: (:func:`repro.experiments.golden.result_digest` skips them), so
    #: observability summaries can grow without invalidating pinned rows —
    #: but they ARE deterministic and land in rendered artifacts, so the CI
    #: double-run diffs still cover them.
    footers: list[str] = field(default_factory=list)

    def row(self, label: str) -> Row:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no row {label!r} in {self.exp_id}")

    def add_row(
        self,
        label: str,
        measured: float,
        unit: str = "",
        paper: Optional[float] = None,
        note: str = "",
    ) -> Row:
        r = Row(label, measured, unit=unit, paper=paper, note=note)
        self.rows.append(r)
        return r

    def add_tracer_footer(self, label: str, tracer) -> None:
        """One ring-health line per tracer: emitted / discarded / unbalanced.

        A nonzero ``discarded`` means the ring evicted spans — coverage
        claims built on that trace silently lie — so the line carries an
        explicit WARNING marker the smoke jobs and readers can grep."""
        line = (
            f"trace ring [{label}]: emitted={tracer.emitted} "
            f"discarded={tracer.discarded} unbalanced_ends={tracer.unbalanced_ends}"
        )
        if tracer.discarded:
            line += " WARNING: ring evicted events; raise the tracer capacity"
        self.footers.append(line)

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        lines = [f"== {self.exp_id}: {self.title} =="]
        if self.rows:
            label_w = max(len(r.label) for r in self.rows)
            lines.append(
                f"{'quantity'.ljust(label_w)}  {'measured':>12}  {'paper':>12}  "
                f"{'meas/paper':>10}  unit"
            )
            for r in self.rows:
                paper = f"{r.paper:.2f}" if r.paper is not None else "-"
                ratio = f"{r.ratio:.2f}" if not math.isnan(r.ratio) else "-"
                note = f"  ({r.note})" if r.note else ""
                lines.append(
                    f"{r.label.ljust(label_w)}  {r.measured:>12.2f}  {paper:>12}  "
                    f"{ratio:>10}  {r.unit}{note}"
                )
        for s in self.series:
            lines.append(
                f"series {s.name!r}: {len(s.x)} points, "
                f"x=[{s.x.min() if s.x.size else 0:.2f}, {s.x.max() if s.x.size else 0:.2f}] {s.x_label}, "
                f"y=[{np.nanmin(s.y) if s.y.size else 0:.1f}, {np.nanmax(s.y) if s.y.size else 0:.1f}] {s.y_label}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.extend(self.footers)
        return "\n".join(lines)

    def ascii_plot(self, series_name: str, width: int = 72, height: int = 16) -> str:
        """Quick-look ASCII rendering of one series (figures)."""
        s = next((x for x in self.series if x.name == series_name), None)
        if s is None:
            raise KeyError(f"no series {series_name!r}")
        mask = ~np.isnan(s.y)
        x, y = s.x[mask], s.y[mask]
        if x.size == 0:
            return "(empty series)"
        ymin, ymax = float(y.min()), float(y.max())
        span = (ymax - ymin) or 1.0
        grid = [[" "] * width for _ in range(height)]
        xmin, xmax = float(x.min()), float(x.max())
        xspan = (xmax - xmin) or 1.0
        for xi, yi in zip(x, y):
            col = int((xi - xmin) / xspan * (width - 1))
            row = int((yi - ymin) / span * (height - 1))
            grid[height - 1 - row][col] = "*"
        lines = [f"{series_name} [{ymin:.0f} .. {ymax:.0f}] {s.y_label}"]
        lines += ["|" + "".join(row) for row in grid]
        lines.append("+" + "-" * width)
        lines.append(f" {xmin:.1f} .. {xmax:.1f} {s.x_label}")
        return "\n".join(lines)
