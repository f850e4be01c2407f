"""LatencyBreakdown: span folding, hop tables, critical paths."""

import tracemalloc

import pytest

from repro.obs import LatencyBreakdown
from repro.obs.breakdown import percentile
from repro.sim.trace import TraceEvent


def B(t, hop, sid, **fields):
    return TraceEvent(t, "span", hop, {**fields, "ph": "B", "span": sid})


def E(t, hop, sid, **fields):
    return TraceEvent(t, "span", hop, {**fields, "ph": "E", "span": sid})


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile(values, 100) == 4.0
        assert percentile([7.0], 50) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestFolding:
    def test_pairs_fold_and_fields_merge(self):
        bd = LatencyBreakdown(
            [B(1.0, "read", 1, stream="s1", seq=0), E(5.0, "read", 1, bytes=100)]
        )
        [span] = bd.spans
        assert span.hop == "read"
        assert span.duration_us == 4.0
        assert span.stream == "s1"
        assert span.fields["bytes"] == 100
        assert "ph" not in span.fields and "span" not in span.fields

    def test_orphan_end_skipped(self):
        # the begin fell off the ring: duration unknowable, span ignored
        bd = LatencyBreakdown([E(5.0, "read", 99)])
        assert bd.spans == []
        assert bd.unfinished == 0

    def test_unfinished_counted(self):
        bd = LatencyBreakdown([B(1.0, "read", 1, stream="s1")])
        assert bd.spans == []
        assert bd.unfinished == 1

    def test_fields_equal_the_merged_copy_in_key_order(self):
        begin = B(1.0, "read", 7, stream="s1", seq=3, track="disk:sd0", parent=2)
        end = E(5.0, "read", 7, bytes=100, track="disk:sd1")
        [span] = LatencyBreakdown([begin, end]).spans
        # the copy the fold used to keep: end over begin, first-seen order
        merged = {**begin.fields, **end.fields}
        del merged["ph"], merged["span"]
        assert span.fields == merged
        assert list(span.fields) == list(merged) == [
            "stream", "seq", "track", "parent", "bytes",
        ]
        assert span.fields["track"] == "disk:sd1"
        assert (span.stream, span.seq) == ("s1", 3)

    def test_stream_and_seq_read_end_over_begin(self):
        begin = B(1.0, "read", 1, stream="s1", seq=0)
        [span] = LatencyBreakdown([begin, E(2.0, "read", 1, seq=9)]).spans
        assert (span.stream, span.seq) == ("s1", 9)
        [bare] = LatencyBreakdown([B(1.0, "x", 1), E(2.0, "x", 1)]).spans
        assert (bare.stream, bare.seq) == (None, None)

    def test_span_holds_the_ring_payloads_without_copying(self):
        begin, end = B(1.0, "read", 1, stream="s1"), E(2.0, "read", 1, bytes=8)
        [span] = LatencyBreakdown([begin, end]).spans
        assert span.begin_fields is begin.fields
        assert span.end_fields is end.fields


class TestRetainedMemory:
    N_SPANS = 10_000
    #: bytes a folded span may retain beyond the ring's own events: one
    #: tuple and a list slot (a merged payload copy cost 369 B per span)
    BOUND_B = 160

    def _read_spans(self):
        """Pairs shaped like the datapath's ``read`` spans."""
        events = []
        for i in range(self.N_SPANS):
            sid = i + 1
            events.append(
                B(i * 10.0, "read", sid, stream=f"s{i % 4}", seq=i, track="disk:sd0")
            )
            events.append(E(i * 10.0 + 4.0, "read", sid, bytes=1000 + i))
        return events

    def test_fold_retains_at_most_one_tuple_per_span(self):
        events = self._read_spans()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bd = LatencyBreakdown(events)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(bd.spans) == self.N_SPANS
        assert retained / self.N_SPANS <= self.BOUND_B


class TestTables:
    def _bd(self):
        events = []
        # s1: two read spans (2us, 4us) + one wire span (1us)
        events += [B(0.0, "read", 1, stream="s1", seq=0), E(2.0, "read", 1)]
        events += [B(10.0, "read", 2, stream="s1", seq=1), E(14.0, "read", 2)]
        events += [B(2.0, "wire", 3, stream="s1", seq=0), E(3.0, "wire", 3)]
        # s2: one read span (6us)
        events += [B(0.0, "read", 4, stream="s2", seq=0), E(6.0, "read", 4)]
        return LatencyBreakdown(events, label="t")

    def test_hops_in_datapath_order(self):
        assert self._bd().hops() == ["read", "wire"]

    def test_by_hop_all_streams(self):
        stats = {s.hop: s for s in self._bd().by_hop()}
        assert stats["read"].count == 3
        assert stats["read"].total_us == 12.0
        assert stats["read"].mean_us == 4.0
        assert stats["read"].pct(100) == 6.0
        assert stats["wire"].count == 1

    def test_by_hop_one_stream(self):
        stats = {s.hop: s for s in self._bd().by_hop("s2")}
        assert stats["read"].count == 1
        assert "wire" not in stats

    def test_table_rows_scopes(self):
        rows = self._bd().table_rows()
        assert [(r["scope"], r["hop"]) for r in rows] == [
            ("*", "read"), ("*", "wire"),
            ("s1", "read"), ("s1", "wire"),
            ("s2", "read"),
        ]

    def test_render_table_deterministic(self):
        assert self._bd().render_table() == self._bd().render_table()


class TestCriticalPath:
    def test_median_frame_selected(self):
        events = []
        # three frames with e2e 2, 4, 9 — median is seq=1
        for seq, dur in ((0, 2.0), (1, 4.0), (2, 9.0)):
            t0 = seq * 100.0
            events += [
                B(t0, "read", seq * 2 + 1, stream="s1", seq=seq),
                E(t0 + dur, "read", seq * 2 + 1),
            ]
        path = LatencyBreakdown(events).median_path("s1")
        assert path.seq == 1
        assert path.end_to_end_us == 4.0

    def test_unattributed_is_uncovered_gap(self):
        events = [
            B(0.0, "read", 1, stream="s1", seq=0), E(4.0, "read", 1),
            # 4..6 unclaimed, then wire 6..10 overlapping squeue 5..8
            B(5.0, "squeue", 2, stream="s1", seq=0), E(8.0, "squeue", 2),
            B(6.0, "wire", 3, stream="s1", seq=0), E(10.0, "wire", 3),
        ]
        path = LatencyBreakdown(events).median_path("s1")
        assert path.end_to_end_us == 10.0
        # union coverage: [0,4] + [5,10] = 9us; the overlap counts once
        assert path.covered_us == 9.0
        assert path.unattributed_us == 1.0

    def test_no_frames_renders_placeholder(self):
        bd = LatencyBreakdown([])
        assert bd.median_path("s1") is None
        assert "no frames" in bd.render_critical_path("s1")
