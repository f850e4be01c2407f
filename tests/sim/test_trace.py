"""Tracer: recording, filtering, bounds, export; scheduler integration."""

import json

import pytest

from repro.core import DWCSScheduler, StreamSpec
from repro.media import FrameType, MediaFrame
from repro.obs import LatencyBreakdown, ObservabilityPlane
from repro.sim import Environment, TraceEvent, Tracer


@pytest.fixture
def env():
    return Environment()


class TestTracer:
    def test_emit_records_time_and_fields(self, env):
        t = Tracer(env)
        env.schedule_callback(5.0, lambda: t.emit("cat", "thing", a=1))
        env.run()
        [e] = t.events()
        assert e.time_us == 5.0
        assert e.category == "cat"
        assert e.fields == {"a": 1}

    def test_category_filter(self, env):
        t = Tracer(env, categories=["keep"])
        t.emit("keep", "x")
        t.emit("drop", "y")
        assert len(t) == 1
        assert not t.wants("drop")

    def test_capacity_ring(self, env):
        t = Tracer(env, capacity=10)
        for i in range(25):
            t.emit("c", "e", i=i)
        assert len(t) == 10
        assert t.discarded == 15
        assert t.events()[0].fields["i"] == 15  # oldest survivor

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Tracer(env, capacity=0)

    def test_query_filters(self, env):
        t = Tracer(env)
        t.emit("a", "x")
        t.emit("a", "y")
        t.emit("b", "x")
        assert len(t.events(category="a")) == 2
        assert len(t.events(name="x")) == 2
        assert len(t.events(category="a", name="x")) == 1
        assert t.counts() == {"a": 2, "b": 1}

    def test_time_window_query(self, env):
        t = Tracer(env)
        env.schedule_callback(1.0, lambda: t.emit("c", "early"))
        env.schedule_callback(9.0, lambda: t.emit("c", "late"))
        env.run()
        assert [e.name for e in t.events(start_us=0, end_us=5)] == ["early"]

    def test_jsonl_export(self, env, tmp_path):
        t = Tracer(env)
        t.emit("c", "e", value=3)
        t.dump(tmp_path / "events.jsonl")
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == {"t": 0.0, "cat": "c", "name": "e", "value": 3}

    def test_reserved_payload_keys_namespaced(self, env):
        t = Tracer(env)
        env.schedule_callback(3.0, lambda: t.emit("tcp", "rto", t=1.5, cat="x", seq=7))
        env.run()
        d = t.events()[0].to_dict()
        # the envelope columns survive untouched...
        assert d["t"] == 3.0
        assert d["cat"] == "tcp"
        assert d["name"] == "rto"
        # ...and the colliding payload fields land under the f_ prefix
        assert d["f_t"] == 1.5
        assert d["f_cat"] == "x"
        assert d["seq"] == 7

    def test_reserved_name_key_namespaced(self):
        # 'name' can't ride emit()'s kwargs (it collides with the
        # positional parameter) but can reach to_dict via fields directly
        e = TraceEvent(1.0, "c", "real", fields={"name": "fake"})
        d = e.to_dict()
        assert d["name"] == "real"
        assert d["f_name"] == "fake"


class TestTraceEvent:
    def test_fields_cannot_be_reassigned(self):
        e = TraceEvent(1.0, "c", "e", {"a": 1})
        for attr, value in (("time_us", 2.0), ("category", "d"),
                            ("name", "f"), ("fields", {})):
            with pytest.raises(AttributeError):
                setattr(e, attr, value)
        assert e == TraceEvent(1.0, "c", "e", {"a": 1})

    def test_default_payload_is_empty_and_read_only(self):
        e = TraceEvent(1.0, "c", "e")
        assert e.fields == {}
        assert e.to_dict() == {"t": 1.0, "cat": "c", "name": "e"}
        with pytest.raises(TypeError):
            e.fields["a"] = 1


class TestAccounting:
    def test_emitted_and_discarded_track_the_ring(self, env):
        t = Tracer(env, capacity=10)
        for i in range(10):
            t.emit("c", "e", i=i)
        assert (t.emitted, t.discarded, len(t)) == (10, 0, 10)
        t.emit("c", "e", i=10)  # first eviction exactly at the boundary
        assert (t.emitted, t.discarded, len(t)) == (11, 1, 10)
        for i in range(11, 25):
            t.emit("c", "e", i=i)
        assert t.emitted == 25
        assert t.discarded == 15
        # invariant: everything emitted is either retained or discarded
        assert t.emitted - t.discarded == len(t)

    def test_filtered_categories_cost_nothing(self, env):
        plane = ObservabilityPlane(env, categories=["keep"])
        t = plane.tracer
        for _ in range(5):
            t.emit("drop", "e")
        t.instant("drop", "e")
        assert plane.begin("e", category="drop") is None
        assert (t.emitted, t.discarded, len(t)) == (0, 0, 0)
        t.emit("keep", "e")
        assert (t.emitted, len(t)) == (1, 1)


class TestSpans:
    """Spans through ``ObservabilityPlane.begin``/``end``, the span API
    every instrumented hop uses."""

    def test_begin_end_pairing(self, env):
        plane = ObservabilityPlane(env)
        sid_holder = {}
        env.schedule_callback(2.0, lambda: sid_holder.update(s=plane.begin("read", stream="s1")))
        env.schedule_callback(7.0, lambda: plane.end(sid_holder["s"], bytes=100))
        env.run()
        begin, end = plane.tracer.events()
        assert begin.fields["ph"] == "B"
        assert end.fields["ph"] == "E"
        assert begin.fields["span"] == end.fields["span"]
        assert begin.time_us == 2.0
        assert end.time_us == 7.0
        assert LatencyBreakdown(plane.tracer.events()).unfinished == 0
        assert plane.tracer.unbalanced_ends == 0

    def test_parent_link_recorded(self, env):
        plane = ObservabilityPlane(env)
        outer = plane.begin("frame")
        inner = plane.begin("read", parent=outer)
        assert plane.tracer.events()[1].fields["parent"] == outer
        plane.end(inner)
        plane.end(outer)

    def test_unbalanced_end_detected(self, env):
        plane = ObservabilityPlane(env)
        sid = plane.begin("x")
        plane.end(sid)
        plane.end(sid)  # double close
        plane.end(999)  # never opened
        assert plane.tracer.unbalanced_ends == 2

    def test_end_none_is_noop(self, env):
        plane = ObservabilityPlane(env)
        plane.end(None)
        assert (len(plane.tracer), plane.tracer.unbalanced_ends) == (0, 0)

    def test_open_spans_reported(self, env):
        plane = ObservabilityPlane(env)
        sid = plane.begin("stuck", stream="s1")
        [begin] = plane.tracer.events()
        assert (begin.fields["span"], begin.category, begin.name, begin.time_us) == (
            sid,
            "span",
            "stuck",
            0.0,
        )
        assert LatencyBreakdown(plane.tracer.events()).unfinished == 1

    def test_instant_marker(self, env):
        t = Tracer(env)
        t.instant("event", "card_crash", card="rd0")
        [e] = t.events()
        assert e.fields["ph"] == "i"
        assert e.fields["card"] == "rd0"

    def test_span_payload_key_order(self, env):
        plane = ObservabilityPlane(env)
        sid = plane.begin("read", parent=7, stream="s1", seq=3)
        plane.end(sid, bytes=100)
        begin, end = plane.tracer.events()
        assert list(begin.fields) == ["stream", "seq", "ph", "span", "parent"]
        assert list(end.fields) == ["bytes", "ph", "span"]

    def test_plane_span_payload_key_order(self, env, tmp_path):
        # the JSONL export writes payload keys in insertion order (and the
        # Perfetto args follow the same dicts), so the order is pinned:
        # caller fields, then track, ph, span, parent
        plane = ObservabilityPlane(env).install()
        outer = plane.begin("frame", track="stream:s1")
        sid = plane.begin("read", track="disk:sd0", parent=outer, stream="s1", seq=3)
        plane.end(sid, bytes=100)
        _, begin, end = plane.tracer.events()
        assert list(begin.fields) == ["stream", "seq", "track", "ph", "span", "parent"]
        assert list(end.fields) == ["bytes", "ph", "span"]
        plane.tracer.dump(tmp_path / "spans.jsonl")
        lines = (tmp_path / "spans.jsonl").read_text().splitlines()
        assert lines[1] == (
            '{"t": 0.0, "cat": "span", "name": "read", "stream": "s1", '
            '"seq": 3, "track": "disk:sd0", "ph": "B", "span": 2, "parent": 1}'
        )
        assert lines[2] == (
            '{"t": 0.0, "cat": "span", "name": "read", "bytes": 100, '
            '"ph": "E", "span": 2}'
        )

    def test_caller_dict_is_not_the_payload(self, env):
        plane = ObservabilityPlane(env)
        fields = {"stream": "s1"}
        plane.end(plane.begin("read", **fields), **fields)
        plane.instant("mark", **fields)
        assert fields == {"stream": "s1"}
        assert [e.fields["ph"] for e in plane.tracer.events()] == ["B", "E", "i"]


class TestDump:
    def test_dump_streams_jsonl(self, env, tmp_path):
        t = Tracer(env)
        for i in range(4):
            t.emit("c", "e", i=i)
        path = tmp_path / "events.jsonl"
        assert t.dump(path) == 4
        text = path.read_text()
        assert text.endswith("\n")
        assert [json.loads(line)["i"] for line in text.splitlines()] == [0, 1, 2, 3]

    def test_dump_empty_tracer(self, env, tmp_path):
        t = Tracer(env)
        path = tmp_path / "empty.jsonl"
        assert t.dump(path) == 0
        assert path.read_text() == ""


class TestSchedulerTracing:
    def test_decisions_drops_and_violations_traced(self, env):
        tracer = Tracer(env)
        s = DWCSScheduler(work_conserving=True)
        s.tracer = tracer
        s.add_stream(StreamSpec("lossy", period_us=100.0, loss_x=1, loss_y=2))
        s.add_stream(
            StreamSpec("strict", period_us=100.0, loss_x=0, loss_y=2, drop_late=False)
        )
        for sid in ("lossy", "strict"):
            for k in range(10):
                s.enqueue(MediaFrame(sid, k, FrameType.I, 1000, 0.0), 0.0)
        t = 0.0
        while s.backlog:
            s.schedule(t)
            t += 300.0  # overload: misses guaranteed
        counts = tracer.counts()
        assert counts["dwcs"] > 0
        names = {e.name for e in tracer.events(category="dwcs")}
        assert "decision" in names
        assert "drop" in names
        assert "violation" in names
        assert "late" in names
        # every drop event carries the stream and sequence number
        for e in tracer.events(name="drop"):
            assert e.fields["stream"] == "lossy"
            assert isinstance(e.fields["seq"], int)

    def test_untraced_scheduler_has_no_overhead_path(self, env):
        s = DWCSScheduler(work_conserving=True)
        assert s.tracer is None
        s.add_stream(StreamSpec("s", period_us=100.0, loss_x=1, loss_y=2))
        s.enqueue(MediaFrame("s", 0, FrameType.I, 1000, 0.0), 0.0)
        s.schedule(0.0)  # no crash, nothing recorded anywhere
