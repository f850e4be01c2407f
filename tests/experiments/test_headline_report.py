"""Headline overhead comparison and report rendering utilities."""

import numpy as np
import pytest

from repro.experiments import headline, scheduling_overhead
from repro.experiments.report import ExperimentResult, Row, Series
from repro.hw.cpu import ULTRASPARC_300
from repro.server.streaming import HOST_DWCS_COSTS


@pytest.fixture(scope="module")
def h():
    return headline()


class TestHeadline:
    def test_ni_overhead_about_65us(self, h):
        assert h.row("i960 RD (66 MHz) scheduling overhead").measured == pytest.approx(
            65.0, abs=8.0
        )

    def test_host_overhead_about_50us(self, h):
        assert h.row(
            "UltraSPARC (300 MHz) host scheduling overhead"
        ).measured == pytest.approx(50.0, abs=8.0)

    def test_comparable_despite_clock_gap(self, h):
        ratio = h.row("overhead ratio (NI/host)").measured
        clock = h.row("clock ratio (host/NI)").measured
        assert ratio < 2.0  # "comparable"
        assert clock > 4.0  # "a much slower processor (factor of 4)"

    def test_overhead_under_half_ethernet_frame_time(self, h):
        """Paper: 65us corresponds to ~half an Ethernet frame time (~120us)."""
        ni = h.row("i960 RD (66 MHz) scheduling overhead").measured
        assert ni < 120.0

    def test_scheduling_overhead_monotone_in_costs(self):
        light = scheduling_overhead(ULTRASPARC_300)
        heavy = scheduling_overhead(ULTRASPARC_300, costs=HOST_DWCS_COSTS)
        assert heavy > light


class TestReportRendering:
    def _result(self):
        r = ExperimentResult(exp_id="T", title="demo")
        r.add_row("alpha", 10.0, "µs", paper=9.5)
        r.add_row("beta", 3.0, "ms")
        r.series.append(Series("s", np.array([0.0, 1.0, 2.0]), np.array([1.0, 4.0, 2.0])))
        r.notes.append("a note")
        return r

    def test_render_includes_rows_series_notes(self):
        text = self._result().render()
        assert "alpha" in text and "9.50" in text
        assert "beta" in text and text.count("-") > 0  # missing paper value
        assert "series 's'" in text
        assert "note: a note" in text

    def test_row_ratio(self):
        r = Row("x", measured=11.0, paper=10.0)
        assert r.ratio == pytest.approx(1.1)
        assert np.isnan(Row("y", measured=1.0).ratio)

    def test_row_lookup_missing_raises(self):
        with pytest.raises(KeyError):
            self._result().row("gamma")

    def test_ascii_plot(self):
        plot = self._result().ascii_plot("s", width=20, height=5)
        assert "*" in plot
        assert plot.count("|") >= 5

    def test_ascii_plot_missing_series(self):
        with pytest.raises(KeyError):
            self._result().ascii_plot("nope")

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("bad", np.array([1.0]), np.array([1.0, 2.0]))
