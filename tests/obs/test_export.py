"""Exporters: Perfetto trace JSON, breakdown CSV, metrics snapshot, artifacts."""

import json

from repro.obs import (
    LatencyBreakdown,
    ObservabilityPlane,
    render_breakdown_csv,
    render_chrome_trace,
    render_metrics_snapshot,
    write_observe_artifacts,
)
from repro.sim import Environment


def _instrumented_plane():
    env = Environment()
    plane = ObservabilityPlane(env).install()

    def frame():
        sp = plane.begin("read", track="disk:sd0", stream="s1", seq=0)
        yield env.timeout(5.0)
        plane.end(sp, bytes=100)
        plane.instant("card_crash", track="card:rd0")
        plane.count("frames", stream="s1")

    env.process(frame())
    env.run(until=20.0)
    return plane


class TestChromeTrace:
    def test_span_becomes_complete_event(self):
        doc = json.loads(render_chrome_trace(_instrumented_plane().tracer))
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        [x] = xs
        assert x["name"] == "read"
        assert x["ts"] == 0.0
        assert x["dur"] == 5.0
        assert x["args"]["bytes"] == 100
        # ph/span/track internals never leak into args
        assert not {"ph", "span", "track"} & set(x["args"])

    def test_instant_and_metadata(self):
        doc = json.loads(render_chrome_trace(_instrumented_plane().tracer))
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        [i] = instants
        assert i["name"] == "card_crash"
        assert i["s"] == "t"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "disk") in names
        assert ("thread_name", "disk:sd0") in names
        assert ("process_name", "card") in names

    def test_track_pid_tid_consistent(self):
        doc = json.loads(render_chrome_trace(_instrumented_plane().tracer))
        by_track = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "M" and e["name"] == "thread_name":
                by_track[e["args"]["name"]] = (e["pid"], e["tid"])
        [x] = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert (x["pid"], x["tid"]) == by_track["disk:sd0"]

    def test_unfinished_span_closed_and_flagged(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        plane.begin("read", track="disk:sd0", stream="s1")
        env.schedule_callback(9.0, lambda: plane.instant("tick"))
        env.run()
        doc = json.loads(render_chrome_trace(plane.tracer))
        [x] = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x["args"]["unfinished"] is True
        assert x["dur"] == 9.0  # closed at the last recorded timestamp

    def test_byte_identical_across_builds(self):
        a = render_chrome_trace(_instrumented_plane().tracer, label="x")
        b = render_chrome_trace(_instrumented_plane().tracer, label="x")
        assert a == b

    def test_discard_count_exported(self):
        plane = _instrumented_plane()
        doc = json.loads(render_chrome_trace(plane.tracer))
        assert doc["otherData"]["events_discarded"] == 0


class TestCsvAndSnapshot:
    def test_breakdown_csv(self):
        plane = _instrumented_plane()
        bd = LatencyBreakdown(plane.span_events(), label="t")
        lines = render_breakdown_csv(bd).splitlines()
        assert lines[0].startswith("scope,hop,count,")
        assert lines[1].split(",")[:4] == ["*", "read", "1", "5.0"]

    def test_metrics_snapshot_json(self):
        text = render_metrics_snapshot(_instrumented_plane().registry)
        assert text.endswith("\n")
        snap = json.loads(text)
        assert snap["frames"]["series"][0]["value"] == 1.0


class TestArtifacts:
    def test_write_observe_artifacts(self, tmp_path):
        plane = _instrumented_plane()
        bd = LatencyBreakdown(plane.span_events(), label="host")
        written = write_observe_artifacts(str(tmp_path), [("host", plane, bd)])
        names = sorted(p.split("/")[-1] for p in written)
        assert names == [
            "breakdown_host.csv",
            "events_host.jsonl",
            "metrics_host.json",
            "trace_host.json",
        ]
        for p in written:
            assert (tmp_path / p.split("/")[-1]).read_text() != ""
        # the jsonl ring round-trips line by line
        events = [
            json.loads(line)
            for line in (tmp_path / "events_host.jsonl").read_text().splitlines()
        ]
        assert len(events) == len(plane.tracer)

    def test_breakdown_csv_is_the_fold_passed_in(self, tmp_path):
        # the artifacts reuse the caller's fold rather than refolding the ring
        plane = _instrumented_plane()
        write_observe_artifacts(str(tmp_path), [("host", plane, LatencyBreakdown([]))])
        csv = (tmp_path / "breakdown_host.csv").read_text()
        assert csv == "scope,hop,count,total_us,mean_us,p50_us,p95_us,max_us\n"
