"""Exporters: Chrome trace-event JSON (Perfetto), CSV tables, snapshots.

The Chrome trace maps simulated resources to Perfetto tracks: each span's
``track`` field (``cpu:host0``, ``bus:pci1``, ``card:rd0``...) becomes a
process/thread pair — the prefix is the process, the full track the
thread — so the UI shows one lane per simulated CPU, bus, and card.
Simulated microseconds pass through unchanged (the trace-event ``ts``
unit is already µs).

Everything here serializes with ``sort_keys=True`` and deterministic
track-id assignment (first appearance in the event ring), so two
same-seed runs produce byte-identical artifacts — the property the CI
``determinism`` job diffs.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Iterable

from ..sim.trace import TraceEvent, Tracer
from .breakdown import LatencyBreakdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plane import ObservabilityPlane
    from .registry import MetricsRegistry

__all__ = [
    "render_chrome_trace",
    "render_breakdown_csv",
    "render_metrics_snapshot",
    "write_observe_artifacts",
]

DEFAULT_TRACK = "misc:events"


class _TrackMap:
    """Deterministic track -> (pid, tid) assignment by first appearance."""

    def __init__(self) -> None:
        self._pids: dict[str, int] = {}
        self._tids: dict[str, int] = {}

    def resolve(self, track: str) -> tuple[int, int]:
        process = track.split(":", 1)[0]
        if process not in self._pids:
            self._pids[process] = len(self._pids) + 1
        if track not in self._tids:
            self._tids[track] = len(self._tids) + 1
        return self._pids[process], self._tids[track]

    def metadata_events(self) -> list[dict[str, Any]]:
        events: list[dict[str, Any]] = []
        for process, pid in self._pids.items():
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
        for track, tid in self._tids.items():
            pid = self._pids[track.split(":", 1)[0]]
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return events


def _span_args(fields: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in fields.items() if k not in ("ph", "span", "track")}


def render_chrome_trace(tracer: Tracer, label: str = "run") -> str:
    """Serialize a tracer's ring as Chrome trace-event JSON.

    Span begin/end pairs fold into ``"X"`` complete events; ``instant()``
    markers and every legacy point event (dwcs drops, tcp retransmits,
    fault injections) become ``"i"`` instants, so the whole pre-existing
    trace vocabulary lands in the same Perfetto view. Spans still open
    when the trace ends are closed at the last recorded timestamp and
    flagged ``"unfinished": true`` rather than silently dropped.
    """
    tracks = _TrackMap()
    trace_events: list[dict[str, Any]] = []
    open_spans: dict[int, TraceEvent] = {}
    last_ts = 0.0

    for ev in tracer.events():
        last_ts = max(last_ts, ev.time_us)
        ph = ev.fields.get("ph")
        sid = ev.fields.get("span")
        if ph == "B" and sid is not None:
            open_spans[sid] = ev
        elif ph == "E" and sid is not None:
            begin = open_spans.pop(sid, None)
            if begin is None:
                continue  # begin evicted from the ring: no duration to draw
            merged = {**begin.fields, **ev.fields}
            pid, tid = tracks.resolve(merged.get("track", DEFAULT_TRACK))
            trace_events.append(
                {
                    "ph": "X",
                    "ts": begin.time_us,
                    "dur": ev.time_us - begin.time_us,
                    "pid": pid,
                    "tid": tid,
                    "cat": begin.category,
                    "name": begin.name,
                    "args": _span_args(merged),
                }
            )
        else:
            track = ev.fields.get("track", f"{ev.category}:{ev.category}")
            pid, tid = tracks.resolve(track)
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "ts": ev.time_us,
                    "pid": pid,
                    "tid": tid,
                    "cat": ev.category,
                    "name": ev.name,
                    "args": _span_args(ev.fields),
                }
            )

    for sid in sorted(open_spans):
        begin = open_spans[sid]
        pid, tid = tracks.resolve(begin.fields.get("track", DEFAULT_TRACK))
        trace_events.append(
            {
                "ph": "X",
                "ts": begin.time_us,
                "dur": last_ts - begin.time_us,
                "pid": pid,
                "tid": tid,
                "cat": begin.category,
                "name": begin.name,
                "args": {**_span_args(begin.fields), "unfinished": True},
            }
        )

    doc = {
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "events_discarded": tracer.discarded},
        "traceEvents": tracks.metadata_events() + trace_events,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def render_breakdown_csv(breakdown: LatencyBreakdown) -> str:
    columns = ("scope", "hop", "count", "total_us", "mean_us", "p50_us", "p95_us", "max_us")
    lines = [",".join(columns)]
    for row in breakdown.table_rows():
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_metrics_snapshot(registry: "MetricsRegistry") -> str:
    return json.dumps(registry.snapshot(), sort_keys=True, indent=2) + "\n"


def write_observe_artifacts(
    out_dir: str,
    runs: Iterable[tuple[str, "ObservabilityPlane", LatencyBreakdown]],
) -> list[str]:
    """Write the full artifact set per instrumented run.

    For each ``(label, plane, breakdown)``, *breakdown* being the plane's
    span events already folded: ``trace_<label>.json`` (Perfetto),
    ``events_<label>.jsonl`` (raw ring), ``breakdown_<label>.csv``,
    ``metrics_<label>.json``. Returns the written paths in order.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    def _write(name: str, content: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        written.append(path)

    for label, plane, breakdown in runs:
        _write(f"trace_{label}.json", render_chrome_trace(plane.tracer, label=label))
        jsonl_path = os.path.join(out_dir, f"events_{label}.jsonl")
        plane.tracer.dump(jsonl_path)
        written.append(jsonl_path)
        _write(f"breakdown_{label}.csv", render_breakdown_csv(breakdown))
        _write(f"metrics_{label}.json", render_metrics_snapshot(plane.registry))
    return written
