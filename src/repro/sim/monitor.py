"""Measurement helpers: time-series recorders and summary statistics.

Every figure in the paper is a time series (CPU utilization, per-stream
bandwidth, per-frame queuing delay); :class:`TimeSeries` records the raw
samples and offers the windowed summaries (mean, maximum) the experiment
harness uses to print figure data.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable

import numpy as np

__all__ = ["TimeSeries", "TallyStats", "RateEstimator"]


class TimeSeries:
    """Append-only (time, value) series with windowed queries.

    Times must be non-decreasing (they come from the simulation clock).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"times must be non-decreasing: {time} < {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def window(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with start <= t < end (vectorized slice, no copy loops)."""
        lo = bisect_left(self._times, start)
        hi = bisect_right(self._times, end)
        # bisect_right includes t == end; trim to half-open interval.
        while hi > lo and self._times[hi - 1] >= end:
            hi -= 1
        return self.times[lo:hi], self.values[lo:hi]

    def mean(self, start: float = -math.inf, end: float = math.inf) -> float:
        _t, v = self.window(max(start, -1e30), min(end, 1e30))
        return float(v.mean()) if v.size else math.nan

    def maximum(self, start: float = -math.inf, end: float = math.inf) -> float:
        _t, v = self.window(max(start, -1e30), min(end, 1e30))
        return float(v.max()) if v.size else math.nan


class TallyStats:
    """Streaming scalar statistics (count/mean/min/max/variance).

    Welford's algorithm — O(1) memory for million-sample runs.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return (
            f"<TallyStats {self.name!r} n={self.count} mean={self.mean:.3f} "
            f"min={self.min:.3f} max={self.max:.3f}>"
        )


class RateEstimator:
    """Sliding-window throughput estimator (bits/bytes per second).

    ``add(time, amount)`` records a delivery; ``rate(now)`` returns the
    amount-per-second over the trailing window. Used for the bandwidth
    figures (paper plots bps sampled over time).
    """

    def __init__(self, window_us: float = 1_000_000.0) -> None:
        self.window_us = window_us
        self._times: list[float] = []
        self._amounts: list[float] = []

    def add(self, time: float, amount: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError("times must be non-decreasing")
        self._times.append(time)
        self._amounts.append(amount)

    def rate(self, now: float) -> float:
        """Amount per second over [now - window, now]."""
        lo = bisect_left(self._times, now - self.window_us)
        hi = bisect_right(self._times, now)
        total = sum(self._amounts[lo:hi])
        return total * 1_000_000.0 / self.window_us

    def cumulative(self) -> float:
        return sum(self._amounts)
