"""TimeSeries, TallyStats, and RateEstimator behaviour."""

import math

import numpy as np
import pytest

from repro.sim import RateEstimator, TallyStats, TimeSeries


class TestTimeSeries:
    def test_record_and_lengths(self):
        ts = TimeSeries("x")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2
        assert list(ts.times) == [0.0, 1.0]
        assert list(ts.values) == [1.0, 2.0]

    def test_decreasing_time_rejected(self):
        ts = TimeSeries()
        ts.record(5.0, 0.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 0.0)

    def test_equal_times_allowed(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        ts.record(5.0, 2.0)
        assert len(ts) == 2

    def test_window_is_half_open(self):
        ts = TimeSeries()
        for t in range(5):
            ts.record(float(t), float(t))
        t, v = ts.window(1.0, 3.0)
        assert list(t) == [1.0, 2.0]
        assert list(v) == [1.0, 2.0]

    def test_mean_over_window(self):
        ts = TimeSeries()
        for t, val in [(0, 10.0), (1, 20.0), (2, 90.0)]:
            ts.record(float(t), val)
        assert ts.mean(0.0, 2.0) == 15.0

    def test_mean_of_empty_window_is_nan(self):
        ts = TimeSeries()
        assert math.isnan(ts.mean(0, 10))

    def test_maximum(self):
        ts = TimeSeries()
        for t, val in enumerate([3.0, 9.0, 1.0]):
            ts.record(float(t), val)
        assert ts.maximum() == 9.0

class TestTallyStats:
    def test_empty_mean_is_nan(self):
        assert math.isnan(TallyStats().mean)

    def test_basic_moments(self):
        st = TallyStats()
        st.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert st.count == 8
        assert st.mean == pytest.approx(5.0)
        assert st.min == 2.0
        assert st.max == 9.0
        assert st.total == 40.0
        # sample stdev of the classic dataset
        assert st.stdev == pytest.approx(2.138, abs=1e-3)

    def test_single_sample_variance_zero(self):
        st = TallyStats()
        st.add(5.0)
        assert st.variance == 0.0

    def test_matches_numpy_on_random_data(self):
        rng = np.random.default_rng(7)
        data = rng.normal(10.0, 3.0, size=1000)
        st = TallyStats()
        st.extend(data)
        assert st.mean == pytest.approx(float(np.mean(data)), rel=1e-9)
        assert st.variance == pytest.approx(float(np.var(data, ddof=1)), rel=1e-9)


class TestRateEstimator:
    def test_rate_over_window(self):
        re = RateEstimator(window_us=1_000_000.0)
        # 1000 bytes at each of t=0.2s..1.0s
        for t in np.arange(0.2, 1.01, 0.2):
            re.add(t * 1e6, 1000.0)
        # at t=1s all five deliveries are within the 1s window
        assert re.rate(1e6) == pytest.approx(5000.0)

    def test_old_samples_fall_out_of_window(self):
        re = RateEstimator(window_us=1_000_000.0)
        re.add(0.0, 1000.0)
        re.add(2_000_000.0, 500.0)
        assert re.rate(2_000_000.0) == pytest.approx(500.0)

    def test_cumulative(self):
        re = RateEstimator()
        re.add(0.0, 10.0)
        re.add(1.0, 20.0)
        assert re.cumulative() == 30.0

    def test_decreasing_time_rejected(self):
        re = RateEstimator()
        re.add(10.0, 1.0)
        with pytest.raises(ValueError):
            re.add(5.0, 1.0)


def test_random_streams_deterministic_and_independent():
    from repro.sim import RandomStreams

    a1 = RandomStreams(seed=1).stream("disk").random(5)
    a2 = RandomStreams(seed=1).stream("disk").random(5)
    b = RandomStreams(seed=1).stream("web").random(5)
    c = RandomStreams(seed=2).stream("disk").random(5)
    assert np.allclose(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)


def test_random_streams_same_instance_cached():
    from repro.sim import RandomStreams

    rs = RandomStreams(seed=3)
    assert rs.stream("x") is rs.stream("x")
