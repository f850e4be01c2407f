"""Figures 6-10 shape checks (reduced duration to keep the suite fast).

The full-length (100 s) runs are exercised by the benchmark harness; here
we verify the qualitative structure the paper reports at 60 simulated
seconds: utilization ordering, host degradation under load, NI immunity,
and the delay ramps.
"""

import math

import pytest

from repro.experiments import run_loading_experiment
from repro.experiments.figures import figure9
from repro.sim import S

DURATION = 60 * S
# at 60 s the loaded window (starting at 40 s) is shorter; measure its tail
WINDOW = (0.72, 1.0)


@pytest.fixture(scope="module")
def host_none():
    return run_loading_experiment("host", "none", duration_us=DURATION)


@pytest.fixture(scope="module")
def host_45():
    return run_loading_experiment("host", "45%", duration_us=DURATION)


@pytest.fixture(scope="module")
def host_60():
    return run_loading_experiment("host", "60%", duration_us=DURATION)


@pytest.fixture(scope="module")
def ni_none():
    return run_loading_experiment("ni", "none", duration_us=DURATION)


@pytest.fixture(scope="module")
def ni_60():
    return run_loading_experiment("ni", "60%", duration_us=DURATION)


class TestFigure6Shape:
    def test_no_load_baseline_under_20pct(self, host_none):
        assert host_none.meter.average() < 20.0

    def test_utilization_orders_with_load(self, host_none, host_45, host_60):
        a = host_none.meter.average()
        b = host_45.meter.average()
        c = host_60.meter.average()
        assert a < b < c

    def test_60_window_bursts_past_80(self, host_60):
        window_util = host_60.meter.series.mean(45 * S, 60 * S)
        assert window_util > 80.0


class TestFigure7Shape:
    def test_no_load_settles_near_natural_rate(self, host_none):
        bw = host_none.settled_bandwidth("s1", window=WINDOW)
        assert bw == pytest.approx(250_000.0, rel=0.15)

    def test_load_cuts_host_bandwidth_in_order(self, host_none, host_45, host_60):
        bw_n = host_none.settled_bandwidth("s1", window=WINDOW)
        bw_45 = host_45.settled_bandwidth("s1", window=WINDOW)
        bw_60 = host_60.settled_bandwidth("s1", window=WINDOW)
        assert bw_60 < bw_45 <= bw_n * 1.02
        assert bw_60 < 0.8 * bw_n

    def test_loss_tolerance_bounds_worst_case(self, host_60):
        """Drops can halve the stream, not erase it: the 1/2 window means
        every other packet still goes out (possibly late)."""
        st = host_60.service.scheduler.streams["s1"]
        consumed = st.serviced + st.sent_late + st.dropped
        if consumed:
            assert st.dropped / consumed <= 0.55


class TestFigure8Shape:
    def test_delay_ramps_with_backlog(self, host_none):
        ts = host_none.service.engine.queuing_delay_us["s1"]
        values = ts.values
        # later frames wait longer (allow jitter): compare thirds
        first = values[: len(values) // 3].mean()
        last = values[-len(values) // 3 :].mean()
        assert last > first

    def test_load_grows_delays(self, host_none, host_60):
        base = host_none.service.engine.delay_stats["s1"].max
        loaded = host_60.service.engine.delay_stats["s1"].max
        assert loaded > 1.2 * base


class TestFigure9Shape:
    def test_ni_bandwidth_immune_to_load(self, ni_none, ni_60):
        bw_none = ni_none.settled_bandwidth("s1", window=WINDOW)
        bw_60 = ni_60.settled_bandwidth("s1", window=WINDOW)
        assert bw_60 == pytest.approx(bw_none, rel=0.05)

    def test_ni_delivers_both_streams(self, ni_60):
        for sid in ("s1", "s2"):
            assert ni_60.service.reception(sid).frames_received > 100

    def test_ratio_is_nan_when_the_no_load_run_settles_at_zero(self):
        """At 1 simulated second the settling window holds no delivered
        bytes; the ratio reads nan, as ``Row.ratio`` does, not a crash."""
        result = figure9(duration_us=1 * S, seed=42)
        assert result.row("settling bandwidth s1 (no load)").measured == 0.0
        assert math.isnan(result.row("loaded/unloaded bandwidth ratio").measured)


class TestFigure10Shape:
    def test_ni_delay_immune_to_load(self, ni_none, ni_60):
        base = ni_none.service.engine.delay_stats["s1"].max
        loaded = ni_60.service.engine.delay_stats["s1"].max
        assert loaded == pytest.approx(base, rel=0.10)

    def test_ni_no_drops_no_violations(self, ni_60):
        st = ni_60.service.scheduler.streams["s1"]
        assert st.dropped == 0
        assert st.violations == 0


class TestLoadedRunInterface:
    def test_series_extraction(self, host_none):
        bw = host_none.bandwidth_series("s1")
        delay = host_none.delay_series("s1")
        assert len(bw.x) > 0
        assert len(delay.x) > 0
        assert delay.x_label == "frame # sent"

    def test_invalid_kind_and_level(self):
        with pytest.raises(ValueError):
            run_loading_experiment("gpu", "none", duration_us=1 * S)
        with pytest.raises(ValueError):
            run_loading_experiment("host", "99%", duration_us=1 * S)
