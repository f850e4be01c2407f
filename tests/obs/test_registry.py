"""MetricsRegistry: counters, gauges, histograms, labels, snapshots."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.registry import DEFAULT_BUCKETS_US, Histogram


class TestCounters:
    def test_count_accumulates(self):
        r = MetricsRegistry()
        r.count("frames")
        r.count("frames", 2.0)
        assert r.value("frames") == 3.0

    def test_labels_are_separate_series(self):
        r = MetricsRegistry()
        r.count("frames", stream="s1")
        r.count("frames", stream="s1")
        r.count("frames", stream="s2")
        assert r.value("frames", stream="s1") == 2.0
        assert r.value("frames", stream="s2") == 1.0
        assert r.value("frames") == 0.0  # unlabeled series never written
        assert len(r) == 2

    def test_counter_cannot_decrease(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.count("frames", -1.0)

    def test_missing_metric_reads_zero(self):
        assert MetricsRegistry().value("nope") == 0.0


class TestGauges:
    def test_set_and_add(self):
        r = MetricsRegistry()
        r.gauge("depth", 5.0)
        r.gauge("depth", 3.0)  # last write wins
        assert r.value("depth") == 3.0


class TestKindConflicts:
    def test_name_bound_to_one_kind(self):
        r = MetricsRegistry()
        r.count("x")
        with pytest.raises(TypeError):
            r.gauge("x", 1.0)
        with pytest.raises(TypeError):
            r.observe("x", 1.0)

    def test_histogram_not_readable_as_scalar(self):
        r = MetricsRegistry()
        r.observe("lat", 5.0)
        with pytest.raises(TypeError):
            r.value("lat")


class TestHistograms:
    def test_bucket_placement(self):
        h = Histogram("lat", buckets=(10.0, 100.0))
        for v in (1.0, 10.0, 50.0, 500.0):
            h.observe(v)
        # <=10, <=100, overflow
        assert h.counts == [2, 1, 1]
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 561.0
        assert snap["min"] == 1.0
        assert snap["max"] == 500.0

    def test_buckets_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(100.0, 10.0))

    def test_default_buckets(self):
        r = MetricsRegistry()
        r.observe("lat", 5.0)
        assert r.get("lat").buckets == DEFAULT_BUCKETS_US


class TestSnapshot:
    def test_shape_and_ordering(self):
        r = MetricsRegistry()
        r.count("b.frames", stream="s2")
        r.count("b.frames", stream="s1")
        r.gauge("a.depth", 4.0)
        snap = r.snapshot()
        assert list(snap) == ["a.depth", "b.frames"]  # name-sorted
        series = snap["b.frames"]["series"]
        assert [s["labels"] for s in series] == [{"stream": "s1"}, {"stream": "s2"}]
        assert snap["a.depth"] == {
            "kind": "gauge",
            "series": [{"labels": {}, "value": 4.0}],
        }

    def test_snapshot_is_json_stable(self):
        def build():
            r = MetricsRegistry()
            r.count("frames", stream="s1")
            r.observe("lat", 12.0)
            r.gauge("depth", 2.0, card="rd0")
            return json.dumps(r.snapshot(), sort_keys=True)

        assert build() == build()

    def test_render_lists_every_series(self):
        r = MetricsRegistry()
        r.count("frames", stream="s1")
        r.observe("lat", 12.0)
        text = r.render("t")
        assert "frames{stream=s1}" in text
        assert "lat" in text and "count=1" in text


def _forget_call_keys(r):
    """Empty the recording caches, so the next call takes the miss path."""
    r._counters.clear()
    r._gauges.clear()
    r._histograms.clear()


class TestOneLookupSeries:
    """Recording finds a known series by the call's own ``(name,
    *labels.items())`` key and falls back to the kind-checked,
    sorted-label path only on a miss."""

    def test_label_order_lands_on_one_series(self):
        r = MetricsRegistry()
        r.count("x", a=1, b=2)
        r.count("x", b=2, a=1)
        r.count("x", a=1, b=2)
        assert len(r) == 1
        assert r.value("x", b=2, a=1) == 3.0
        assert r.snapshot()["x"]["series"] == [
            {"labels": {"a": 1, "b": 2}, "value": 3.0}
        ]

    def test_cached_counter_still_refuses_other_kinds(self):
        r = MetricsRegistry()
        r.count("x", card="rd0")
        r.count("x", card="rd0")  # served by the one-lookup path now
        with pytest.raises(TypeError):
            r.gauge("x", 1.0, card="rd0")
        with pytest.raises(TypeError):
            r.observe("x", 1.0, card="rd0")
        assert r.value("x", card="rd0") == 2.0
        assert r.snapshot()["x"]["kind"] == "counter"

    def test_negative_count_on_cached_series_raises(self):
        r = MetricsRegistry()
        r.count("frames", stream="s1")
        r.count("frames", stream="s1")
        with pytest.raises(ValueError):
            r.count("frames", -1.0, stream="s1")
        assert r.value("frames", stream="s1") == 2.0

    def test_matches_a_registry_filled_through_the_miss_path(self):
        ops = [
            lambda r: r.count("frames", stream="s1", card="rd0"),
            lambda r: r.count("frames", card="rd0", stream="s1"),
            lambda r: r.count("frames", 2.0, stream="s2", card="rd0"),
            lambda r: r.count("crashes"),
            lambda r: r.gauge("depth", 4.0, card="rd0"),
            lambda r: r.gauge("depth", 7.0, card="rd1"),
            lambda r: r.observe("lat", 12.0, hop="read", kind="host"),
            lambda r: r.observe("lat", 250.0, kind="host", hop="read"),
            lambda r: r.observe("lat", 5.0, hop="wire", kind="host"),
        ]
        fast, slow = MetricsRegistry(), MetricsRegistry()
        for _ in range(3):
            for op in ops:
                op(fast)
                _forget_call_keys(slow)
                op(slow)
        assert len(fast) == len(slow) == 7
        assert fast.snapshot() == slow.snapshot()
        assert json.dumps(fast.snapshot()) == json.dumps(slow.snapshot())
        assert fast.render() == slow.render()
