"""Latency-breakdown analyzer: fold datapath spans into per-hop tables.

Takes the raw span events a run collected and answers the paper's core
question per hop instead of per run: where did each frame's time go on
the disk → buffer → bridge → scheduler → stack → wire path, and how does
that split differ between the host-resident and NI-resident schedulers
(Fig. 7/8 told hop by hop)?

All statistics use nearest-rank percentiles over exact simulated-time
durations — no interpolation, no floating averaging tricks — so the
tables are byte-stable across same-seed runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple, Optional

from ..sim.trace import TraceEvent

__all__ = ["CompletedSpan", "HopStats", "CriticalPath", "LatencyBreakdown"]

#: canonical ordering of datapath hops for table/critical-path rendering;
#: hops not listed sort after these, alphabetically
HOP_ORDER = (
    "read",
    "fs",
    "xfer",
    "seg",
    "memwait",
    "squeue",
    "dispatch",
    "firmware",
    "i2o",
    "stack",
    "txbridge",
    "wire",
)


def _hop_rank(hop: str) -> tuple[int, str]:
    try:
        return (HOP_ORDER.index(hop), hop)
    except ValueError:
        return (len(HOP_ORDER), hop)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile over an ascending list (must be non-empty)."""
    if not sorted_values:
        raise ValueError("percentile of empty list")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class CompletedSpan(NamedTuple):
    """A begin/end pair folded into one record (an immutable tuple, like
    :class:`~repro.sim.trace.TraceEvent`).

    It holds the begin and end payloads by reference, the same dicts the
    trace ring holds, so a folded span adds one tuple and copies nothing;
    :attr:`fields` merges them only when asked."""

    span_id: int
    hop: str
    begin_us: float
    end_us: float
    stream: Optional[str]
    seq: Optional[int]
    begin_fields: Mapping[str, Any]
    end_fields: Mapping[str, Any]

    @property
    def duration_us(self) -> float:
        return self.end_us - self.begin_us

    @property
    def fields(self) -> dict[str, Any]:
        """Both payloads merged, end over begin, without ``ph``/``span``."""
        merged = {**self.begin_fields, **self.end_fields}
        # both carry ph and span; the rest keep first-seen order
        del merged["ph"], merged["span"]
        return merged


@dataclass
class HopStats:
    """Aggregate durations for one (stream, hop) or (all-streams, hop) cell."""

    hop: str
    durations_us: list[float] = field(default_factory=list)

    def add(self, duration_us: float) -> None:
        self.durations_us.append(duration_us)

    @property
    def count(self) -> int:
        return len(self.durations_us)

    @property
    def total_us(self) -> float:
        return sum(self.durations_us)

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def pct(self, p: float) -> float:
        return percentile(sorted(self.durations_us), p)

    def row(self) -> dict[str, Any]:
        return {
            "hop": self.hop,
            "count": self.count,
            "total_us": round(self.total_us, 3),
            "mean_us": round(self.mean_us, 3),
            "p50_us": round(self.pct(50), 3),
            "p95_us": round(self.pct(95), 3),
            "max_us": round(self.pct(100), 3),
        }


@dataclass
class CriticalPath:
    """One frame's ordered walk through the datapath.

    ``unattributed_us`` is the end-to-end wall minus the union coverage of
    its spans — genuine queueing/idle gaps no hop claims. Overlapping
    spans (a frame sitting in the scheduler queue while the previous frame
    transmits) are only counted once in the union.
    """

    stream: str
    seq: int
    begin_us: float
    end_us: float
    hops: list[tuple[str, float, float]]  # (hop, begin, end), time-ordered

    @property
    def end_to_end_us(self) -> float:
        return self.end_us - self.begin_us

    @property
    def covered_us(self) -> float:
        merged: list[list[float]] = []
        for _, b, e in sorted(self.hops, key=lambda h: (h[1], h[2])):
            if merged and b <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([b, e])
        return sum(e - b for b, e in merged)

    @property
    def unattributed_us(self) -> float:
        return max(0.0, self.end_to_end_us - self.covered_us)


class LatencyBreakdown:
    """Fold a run's span events into tables and critical paths."""

    def __init__(self, events: Iterable[TraceEvent], label: str = "") -> None:
        self.label = label
        self.spans: list[CompletedSpan] = []
        self.unfinished = 0
        self._fold(events)

    def _fold(self, events: Iterable[TraceEvent]) -> None:
        open_spans: dict[int, TraceEvent] = {}
        for ev in events:
            fields = ev.fields
            ph = fields.get("ph")
            sid = fields.get("span")
            if ph == "B" and sid is not None:
                open_spans[sid] = ev
            elif ph == "E" and sid is not None:
                begin = open_spans.pop(sid, None)
                if begin is None:
                    continue  # begin fell off the ring; duration unknowable
                opened = begin.fields
                # stream and seq as the merged payload reads them: end over begin
                stream = fields.get("stream", opened.get("stream"))
                seq = fields.get("seq", opened.get("seq"))
                self.spans.append(
                    CompletedSpan(
                        sid, begin.name, begin.time_us, ev.time_us, stream, seq, opened, fields
                    )
                )
        self.unfinished = len(open_spans)

    # -- tables -----------------------------------------------------------------
    def hops(self) -> list[str]:
        return sorted({s.hop for s in self.spans}, key=_hop_rank)

    def streams(self) -> list[str]:
        return sorted({s.stream for s in self.spans if s.stream is not None})

    def by_hop(self, stream: Optional[str] = None) -> list[HopStats]:
        """Per-hop stats, over all streams or one stream's spans only."""
        cells: dict[str, HopStats] = {}
        for s in self.spans:
            if stream is not None and s.stream != stream:
                continue
            cells.setdefault(s.hop, HopStats(s.hop)).add(s.duration_us)
        return [cells[h] for h in sorted(cells, key=_hop_rank)]

    def table_rows(self) -> list[dict[str, Any]]:
        """All-streams table plus one sub-table per stream, flattened with a
        ``scope`` column (``*`` = every stream)."""
        rows = []
        for stats in self.by_hop():
            rows.append({"scope": "*", **stats.row()})
        for stream in self.streams():
            for stats in self.by_hop(stream):
                rows.append({"scope": stream, **stats.row()})
        return rows

    # -- critical path -------------------------------------------------------------
    def frame_paths(self, stream: str) -> list[CriticalPath]:
        """Every (stream, seq) walk, ordered by seq."""
        frames: dict[int, list[CompletedSpan]] = {}
        for s in self.spans:
            if s.stream == stream and s.seq is not None:
                frames.setdefault(s.seq, []).append(s)
        paths = []
        for seq in sorted(frames):
            spans = sorted(frames[seq], key=lambda s: (s.begin_us, s.end_us))
            paths.append(
                CriticalPath(
                    stream=stream,
                    seq=seq,
                    begin_us=spans[0].begin_us,
                    end_us=max(s.end_us for s in spans),
                    hops=[(s.hop, s.begin_us, s.end_us) for s in spans],
                )
            )
        return paths

    def median_path(self, stream: str) -> Optional[CriticalPath]:
        """The frame whose end-to-end latency is the median — a
        representative walk, not the lucky best or unlucky worst."""
        paths = self.frame_paths(stream)
        if not paths:
            return None
        ordered = sorted(paths, key=lambda p: (p.end_to_end_us, p.seq))
        return ordered[(len(ordered) - 1) // 2]

    # -- rendering ----------------------------------------------------------------
    def render_table(self) -> str:
        header = f"{'scope':>8} {'hop':>9} {'count':>7} {'mean_us':>10} {'p50_us':>10} {'p95_us':>10} {'max_us':>10}"
        lines = [f"== latency breakdown: {self.label} ==" if self.label else "== latency breakdown ==", header]
        for row in self.table_rows():
            lines.append(
                f"{row['scope']:>8} {row['hop']:>9} {row['count']:>7} "
                f"{row['mean_us']:>10.1f} {row['p50_us']:>10.1f} "
                f"{row['p95_us']:>10.1f} {row['max_us']:>10.1f}"
            )
        return "\n".join(lines)

    def render_critical_path(self, stream: str) -> str:
        path = self.median_path(stream)
        title = f"critical path ({self.label}, stream {stream})" if self.label else f"critical path (stream {stream})"
        if path is None:
            return f"== {title} ==\n  (no frames observed)"
        lines = [
            f"== {title} ==",
            f"  frame seq={path.seq}  end-to-end={path.end_to_end_us:.1f}us  "
            f"unattributed={path.unattributed_us:.1f}us",
        ]
        for hop, b, e in path.hops:
            lines.append(
                f"  {hop:>9}  +{b - path.begin_us:>10.1f}us  dur={e - b:>10.1f}us"
            )
        return "\n".join(lines)
