"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` per observability plane collects every metric
the instrumented datapath produces, keyed by ``(name, sorted label set)``.
Labels are plain keyword arguments (``registry.count("nic.crashes",
card="rd0")``), so call sites stay one-liners; a repeated call finds its
series with one dict lookup keyed ``(name, *labels.items())``. Snapshots
are plain nested dicts with deterministic ordering — same run, same seed,
byte-identical JSON — which is what the CI ``determinism`` job diffs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS_US"]

#: default latency buckets (µs) — tuned to the paper's timescales: PIO ops
#: are single-digit µs, DMA/bridge transfers tens to hundreds, scheduler
#: rounds and frame services milliseconds, failover tens of milliseconds
DEFAULT_BUCKETS_US = (
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
)

LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


@dataclass
class Counter:
    """Monotonically increasing count (frames sent, faults injected...);
    :meth:`MetricsRegistry.count` refuses a negative amount."""

    name: str
    value: float = 0.0

    def snapshot(self) -> float:
        return self.value


@dataclass
class Gauge:
    """Last-write-wins instantaneous value (queue depth, window headroom)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


@dataclass
class Histogram:
    """Fixed-bucket histogram with sum/count/min/max sidecars.

    ``buckets`` are upper bounds; an observation lands in the first bucket
    whose bound is >= the value, or the overflow slot past the last bound.
    """

    name: str
    buckets: tuple[float, ...] = DEFAULT_BUCKETS_US
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    observations: int = 0
    min_value: Optional[float] = None
    max_value: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.buckets:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"histogram {self.name!r} buckets must be ascending")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.observations += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        self.counts[bisect_left(self.buckets, value)] += 1

    def snapshot(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.observations,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
        }


class MetricsRegistry:
    """Label-aware metric store with kind-conflict detection.

    A name is bound to one metric kind on first use; reusing it as a
    different kind raises immediately (a silent counter/gauge mixup would
    corrupt the snapshot rather than crash, which is worse).
    """

    def __init__(self) -> None:
        # name -> kind ("counter" | "gauge" | "histogram")
        self._kinds: dict[str, str] = {}
        # name -> {label_key: metric}
        self._metrics: dict[str, dict[LabelKey, Any]] = {}
        # (name, *labels.items()) -> metric; per kind, so a kind clash misses
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    def _check_kind(self, name: str, kind: str) -> None:
        bound = self._kinds.get(name)
        if bound is None:
            self._kinds[name] = kind
            self._metrics[name] = {}
        elif bound != kind:
            raise TypeError(f"metric {name!r} already registered as {bound}, not {kind}")

    def _series(self, name: str, kind: str, labels: dict[str, Any], cache: dict) -> Any:
        """The miss path: kind check, canonical series by sorted labels."""
        self._check_kind(name, kind)
        key = _label_key(labels)
        series = self._metrics[name]
        metric = series.get(key)
        if metric is None:
            if kind == "counter":
                metric = Counter(name)
            elif kind == "gauge":
                metric = Gauge(name)
            else:
                metric = Histogram(name)
            series[key] = metric
        cache[(name, *labels.items())] = metric
        return metric

    # -- recording ------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        counter = self._counters.get((name, *labels.items()))
        if counter is None:
            counter = self._series(name, "counter", labels, self._counters)
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        counter.value += amount

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        gauge = self._gauges.get((name, *labels.items()))
        if gauge is None:
            gauge = self._series(name, "gauge", labels, self._gauges)
        gauge.set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        histogram = self._histograms.get((name, *labels.items()))
        if histogram is None:
            histogram = self._series(name, "histogram", labels, self._histograms)
        histogram.observe(value)

    # -- reading ---------------------------------------------------------------
    def get(self, name: str, **labels: Any) -> Optional[Any]:
        series = self._metrics.get(name)
        if series is None:
            return None
        return series.get(_label_key(labels))

    def value(self, name: str, **labels: Any) -> float:
        """Counter/gauge value, or 0.0 when never recorded."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        snap = metric.snapshot()
        if isinstance(snap, dict):
            raise TypeError(f"metric {name!r} is a histogram; use get()")
        return snap

    def total(self, name: str) -> Optional[float]:
        """Sum of every series of *name* across label combinations
        (histograms contribute their observation counts); ``None`` when
        the name was never recorded."""
        series = self._metrics.get(name)
        if not series:
            return None
        out = 0.0
        for m in series.values():
            snap = m.snapshot()
            out += float(snap["count"]) if isinstance(snap, dict) else float(snap)
        return out

    def names(self) -> list[str]:
        return sorted(self._kinds)

    def snapshot(self) -> dict[str, Any]:
        """Nested plain-dict snapshot with fully deterministic ordering.

        Shape: ``{name: {"kind": ..., "series": [{"labels": {...},
        "value"|"hist": ...}, ...]}}`` — series sorted by label key so two
        same-seed runs serialize identically.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._kinds):
            kind = self._kinds[name]
            series_out = []
            for key in sorted(self._metrics[name]):
                metric = self._metrics[name][key]
                entry: dict[str, Any] = {"labels": dict(key)}
                if kind == "histogram":
                    entry["hist"] = metric.snapshot()
                else:
                    entry["value"] = metric.snapshot()
                series_out.append(entry)
            out[name] = {"kind": kind, "series": series_out}
        return out

    def render(self, title: str = "metrics") -> str:
        """Human-readable snapshot table (counters/gauges only, one line
        per labeled series; histograms summarized as count/sum)."""
        lines = [f"== {title} ==" if title else "== metrics =="]
        for name in sorted(self._kinds):
            kind = self._kinds[name]
            for key in sorted(self._metrics[name]):
                metric = self._metrics[name][key]
                label_txt = ",".join(f"{k}={v}" for k, v in key)
                suffix = f"{{{label_txt}}}" if label_txt else ""
                if kind == "histogram":
                    snap = metric.snapshot()
                    lines.append(
                        f"  {name}{suffix}  count={snap['count']} sum={snap['sum']:.1f}"
                    )
                else:
                    lines.append(f"  {name}{suffix}  {metric.snapshot():g}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return sum(len(series) for series in self._metrics.values())
