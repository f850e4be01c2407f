"""DWCS algorithm semantics: precedence rules, window adjustments, drops."""

import pytest

from repro.core import (
    CalendarQueue,
    DualHeaps,
    DWCSScheduler,
    LinearScan,
    SortedList,
    StreamSpec,
)
from repro.fixedpoint import FixedPointContext, OpCounter, SoftwareFloatContext
from repro.media import FrameType, MediaFrame


def make_frame(stream, seq, size=1000):
    return MediaFrame(stream, seq, FrameType.I, size, pts_us=0.0)


def sched(**kw):
    kw.setdefault("work_conserving", True)
    return DWCSScheduler(**kw)


def fill(s, stream, n, start_seq=0, now=0.0):
    for i in range(n):
        s.enqueue(make_frame(stream, start_seq + i), now)


class TestPrecedenceRules:
    def test_rule1_earliest_deadline_first(self):
        s = sched()
        s.add_stream(StreamSpec("slow", period_us=2000.0, loss_x=1, loss_y=2))
        s.add_stream(StreamSpec("fast", period_us=1000.0, loss_x=1, loss_y=2))
        fill(s, "slow", 1)
        fill(s, "fast", 1)
        # fast's first deadline (t=1000) < slow's (t=2000)
        assert s.schedule(0.0).serviced.stream_id == "fast"

    def test_rule2_equal_deadline_lowest_constraint(self):
        s = sched()
        s.add_stream(StreamSpec("tolerant", period_us=1000.0, loss_x=3, loss_y=4))
        s.add_stream(StreamSpec("strict", period_us=1000.0, loss_x=1, loss_y=4))
        fill(s, "tolerant", 1)
        fill(s, "strict", 1)
        assert s.schedule(0.0).serviced.stream_id == "strict"

    def test_rule3_zero_constraints_highest_denominator(self):
        s = sched()
        s.add_stream(StreamSpec("shortwin", period_us=1000.0, loss_x=0, loss_y=2))
        s.add_stream(StreamSpec("longwin", period_us=1000.0, loss_x=0, loss_y=9))
        fill(s, "shortwin", 1)
        fill(s, "longwin", 1)
        assert s.schedule(0.0).serviced.stream_id == "longwin"

    def test_rule4_equal_nonzero_lowest_numerator(self):
        s = sched()
        # same constraint value 1/2 == 2/4, different numerators
        s.add_stream(StreamSpec("bignum", period_us=1000.0, loss_x=2, loss_y=4))
        s.add_stream(StreamSpec("smallnum", period_us=1000.0, loss_x=1, loss_y=2))
        fill(s, "bignum", 1)
        fill(s, "smallnum", 1)
        assert s.schedule(0.0).serviced.stream_id == "smallnum"

    def test_rule5_fcfs(self):
        s = sched()
        s.add_stream(StreamSpec("first", period_us=1000.0, loss_x=1, loss_y=2))
        s.add_stream(StreamSpec("second", period_us=1000.0, loss_x=1, loss_y=2))
        # identical attributes; 'first' enqueued earlier in sim time
        s.enqueue(make_frame("first", 0), 0.0)
        s.enqueue(make_frame("second", 0), 0.0)
        # deadlines anchor at the same time; head arrival times equal, so
        # stream creation order breaks the tie
        assert s.schedule(0.0).serviced.stream_id == "first"

    def test_fcfs_ring_keeps_arrival_order(self):
        s = sched()  # default ring = FCFS
        s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=1, loss_y=4))
        for seq, pts in [(0, 0.0), (1, 99_000.0), (2, 33_000.0)]:
            s.enqueue(MediaFrame("s1", seq, FrameType.I, 1000, pts_us=pts), 0.0)
        served = []
        while s.backlog:
            d = s.schedule(0.0)
            if d.serviced:
                served.append(d.serviced.frame.seqno)
        assert served == [0, 1, 2]

    def test_empty_scheduler_returns_none(self):
        s = sched()
        s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=1, loss_y=2))
        d = s.schedule(0.0)
        assert d.serviced is None
        assert d.dropped == []


class TestWindowAdjustments:
    def test_serviced_decrements_window(self):
        s = sched()
        st = s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=1, loss_y=4))
        fill(s, "s1", 2)
        s.schedule(0.0)
        assert (st.x_cur, st.y_cur) == (1, 3)

    def test_serviced_resets_when_x_equals_y(self):
        s = sched()
        st = s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=1, loss_y=2))
        fill(s, "s1", 2)
        s.schedule(0.0)  # y': 2->1 == x' -> reset
        assert (st.x_cur, st.y_cur) == (1, 2)
        assert st.window_resets == 1

    def test_zero_tolerance_window_cycles(self):
        s = sched()
        st = s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=0, loss_y=3))
        fill(s, "s1", 3)
        s.schedule(0.0)
        assert (st.x_cur, st.y_cur) == (0, 2)
        s.schedule(0.0)
        assert (st.x_cur, st.y_cur) == (0, 1)
        s.schedule(0.0)  # y'->0 -> reset
        assert (st.x_cur, st.y_cur) == (0, 3)

    def test_full_tolerance_resets_immediately(self):
        s = sched()
        st = s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=2, loss_y=2))
        fill(s, "s1", 1)
        s.schedule(0.0)  # y'->1 < x'=2 -> reset
        assert (st.x_cur, st.y_cur) == (2, 2)

    def test_missed_deadline_drops_lossy_packet(self):
        s = sched()
        st = s.add_stream(StreamSpec("s1", period_us=100.0, loss_x=1, loss_y=4))
        fill(s, "s1", 2, now=0.0)  # deadlines at 100, 200
        d = s.schedule(150.0)  # head (dl=100) is late
        assert len(d.dropped) == 1
        assert d.dropped[0].frame.seqno == 0
        assert st.dropped == 1
        # the serviced packet is the next one (dl=200, on time)
        assert d.serviced.frame.seqno == 1
        # miss: (1,4) -> (0,3); then on-time service: (0,3) -> (0,2)
        assert (st.x_cur, st.y_cur) == (0, 2)

    def test_missed_deadline_reset_when_x_meets_y(self):
        s = sched()
        st = s.add_stream(StreamSpec("s1", period_us=100.0, loss_x=2, loss_y=2))
        fill(s, "s1", 1, now=0.0)
        d = s.schedule(500.0)
        # miss: x' 2->1, y' 2->1, equal -> reset
        assert (st.x_cur, st.y_cur) == (2, 2)
        assert st.window_resets == 1
        assert d.serviced is None  # head was dropped, queue empty

    def test_violation_on_zero_tolerance_miss(self):
        s = sched()
        st = s.add_stream(
            StreamSpec("s1", period_us=100.0, loss_x=0, loss_y=2, drop_late=False)
        )
        fill(s, "s1", 1, now=0.0)
        d = s.schedule(500.0)
        assert st.violations == 1
        # violation restarts the window
        assert (st.x_cur, st.y_cur) == (0, 2)
        # non-droppable: packet transmitted late
        assert d.serviced is not None
        assert d.late
        assert st.sent_late == 1

    def test_late_packet_charged_one_miss_only(self):
        s = sched()
        st = s.add_stream(
            StreamSpec("s1", period_us=100.0, loss_x=0, loss_y=2, drop_late=False)
        )
        fill(s, "s1", 1, now=0.0)
        # process misses twice without servicing (no eligible selection in
        # a second stream scenario is hard to force; call twice and count)
        s._process_misses(500.0)
        s._process_misses(600.0)
        assert st.violations == 1

    def test_drop_late_false_lossy_stream_sends_late(self):
        s = sched()
        st = s.add_stream(
            StreamSpec("s1", period_us=100.0, loss_x=1, loss_y=4, drop_late=False)
        )
        fill(s, "s1", 1, now=0.0)
        d = s.schedule(500.0)
        assert d.serviced is not None
        assert d.late
        assert st.dropped == 0
        assert st.sent_late == 1
        # the miss still cost window state
        assert (st.x_cur, st.y_cur) == (0, 3)


class TestSelectiveLossiness:
    """'Packet scheduling eliminates traffic by implementing
    stream-selective lossiness in overload conditions.'"""

    def test_lossy_stream_absorbs_overload(self):
        s = sched()
        lossy = s.add_stream(StreamSpec("lossy", period_us=100.0, loss_x=2, loss_y=4))
        strict = s.add_stream(StreamSpec("strict", period_us=100.0, loss_x=0, loss_y=4, drop_late=False))
        fill(s, "lossy", 20, now=0.0)
        fill(s, "strict", 20, now=0.0)
        # Service slowly: one decision every 250us (overload: 2 streams x
        # 100us periods need a packet every 50us).
        t = 0.0
        while s.backlog:
            s.schedule(t)
            t += 250.0
        assert lossy.dropped > 0
        assert strict.dropped == 0
        # the strict stream delivered everything (possibly late)
        assert strict.serviced + strict.sent_late == 20

    def test_no_misses_when_underloaded(self):
        s = sched()
        st = s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=1, loss_y=4))
        fill(s, "s1", 10, now=0.0)
        t = 0.0
        while s.backlog:
            s.schedule(t)
            t += 100.0  # 10x faster than required
        assert st.dropped == 0
        assert st.violations == 0
        assert st.serviced == 10


class TestPacing:
    def test_non_work_conserving_waits_for_release(self):
        s = DWCSScheduler(work_conserving=False)
        s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=1, loss_y=2))
        fill(s, "s1", 5, now=0.0)
        # at t=0, head deadline=1000, release=0 -> eligible
        d0 = s.schedule(0.0)
        assert d0.serviced is not None
        # next head deadline=2000, release=1000 -> not eligible at t=100
        d1 = s.schedule(100.0)
        assert d1.serviced is None
        assert d1.idle_until == pytest.approx(1000.0)
        # eligible at its release
        d2 = s.schedule(1000.0)
        assert d2.serviced is not None

    def test_work_conserving_drains_back_to_back(self):
        s = sched()
        s.add_stream(StreamSpec("s1", period_us=1_000_000.0, loss_x=1, loss_y=2))
        fill(s, "s1", 5, now=0.0)
        sent = 0
        while s.backlog:
            if s.schedule(0.0).serviced:
                sent += 1
        assert sent == 5

    def test_fallback_selects_eligible_later_deadline(self):
        s = DWCSScheduler(work_conserving=False, selection_factory=LinearScan)
        s.add_stream(StreamSpec("longp", period_us=10_000.0, loss_x=1, loss_y=2))
        s.add_stream(StreamSpec("shortp", period_us=500.0, loss_x=1, loss_y=2))
        s.enqueue(make_frame("shortp", 0), 0.0)
        d = s.schedule(0.0)
        assert d.serviced.stream_id == "shortp"
        # at t=600: longp head (enqueued now, dl=10600, release 600) is
        # eligible; shortp's next (dl=1000, release 500)... enqueue longp
        s.enqueue(make_frame("longp", 0), 600.0)
        s.enqueue(make_frame("shortp", 1), 600.0)
        d = s.schedule(600.0)
        # shortp dl=1000 < longp dl=10600, both eligible -> shortp
        assert d.serviced.stream_id == "shortp"


class TestBookkeeping:
    def test_duplicate_stream_rejected(self):
        s = sched()
        s.add_stream(StreamSpec("s1", period_us=1.0, loss_x=0, loss_y=1))
        with pytest.raises(ValueError):
            s.add_stream(StreamSpec("s1", period_us=1.0, loss_x=0, loss_y=1))

    def test_enqueue_unknown_stream_rejected(self):
        with pytest.raises(KeyError):
            sched().enqueue(make_frame("ghost", 0), 0.0)

    def test_remove_stream(self):
        s = sched()
        s.add_stream(StreamSpec("s1", period_us=1.0, loss_x=0, loss_y=1))
        s.remove_stream("s1")
        assert "s1" not in s.streams

    def test_remove_nonempty_stream_rejected(self):
        s = sched()
        s.add_stream(StreamSpec("s1", period_us=1.0, loss_x=0, loss_y=1))
        fill(s, "s1", 1)
        with pytest.raises(RuntimeError):
            s.remove_stream("s1")

    def test_backlog_and_depths(self):
        s = sched()
        s.add_stream(StreamSpec("a", period_us=1.0, loss_x=0, loss_y=1))
        s.add_stream(StreamSpec("b", period_us=1.0, loss_x=0, loss_y=1))
        fill(s, "a", 3)
        fill(s, "b", 2)
        assert s.backlog == 5
        assert s.queue_depth("a") == 3

    def test_stats_aggregate(self):
        s = sched()
        s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=1, loss_y=2))
        fill(s, "s1", 3)
        while s.backlog:
            s.schedule(0.0)
        assert s.stats.serviced == 3
        assert s.stats.decisions >= 3

    def test_ops_accumulate(self):
        s = sched()
        s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=1, loss_y=2))
        fill(s, "s1", 1)
        before = s.ops.total()
        s.schedule(0.0)
        assert s.ops.total() > before

    @pytest.mark.parametrize("miss_scan", ["descriptor-loop", "structure"])
    @pytest.mark.parametrize("factory", [DualHeaps, LinearScan, SortedList, CalendarQueue])
    def test_empty_cycle_charges_only_the_decision_base(self, factory, miss_scan):
        s = sched(selection_factory=factory, miss_scan=miss_scan, work_conserving=False)
        s.add_stream(StreamSpec("s1", period_us=1000.0, loss_x=1, loss_y=2))
        fill(s, "s1", 1)
        s.schedule(0.0)  # serviced: the ring is empty again
        before = s.ops.copy()
        d = s.schedule(5000.0)
        base = OpCounter()
        s.costs.charge_decision_base(base)
        assert (d.serviced, d.dropped, d.idle_until) == (None, [], None)
        assert d.ops == base
        assert s.ops.snapshot_delta(before) == base


class TestArithmeticBuilds:
    def test_fixed_and_float_make_identical_decisions(self):
        histories = {}
        for ctx_cls in (FixedPointContext, SoftwareFloatContext):
            s = sched(ctx=ctx_cls())
            s.add_stream(StreamSpec("a", period_us=300.0, loss_x=1, loss_y=3))
            s.add_stream(StreamSpec("b", period_us=500.0, loss_x=2, loss_y=5))
            s.add_stream(StreamSpec("c", period_us=700.0, loss_x=0, loss_y=4, drop_late=False))
            for stream in ("a", "b", "c"):
                fill(s, stream, 15)
            history = []
            t = 0.0
            while s.backlog:
                d = s.schedule(t)
                history.append(
                    (
                        d.serviced.stream_id if d.serviced else None,
                        tuple(x.frame.seqno for x in d.dropped),
                    )
                )
                t += 120.0
            histories[ctx_cls.__name__] = history
        assert histories["FixedPointContext"] == histories["SoftwareFloatContext"]

    def test_float_build_charges_fp_ops_fixed_does_not(self):
        for ctx_cls, expect_fp in ((FixedPointContext, False), (SoftwareFloatContext, True)):
            s = sched(ctx=ctx_cls())
            s.add_stream(StreamSpec("a", period_us=300.0, loss_x=1, loss_y=3))
            s.add_stream(StreamSpec("b", period_us=500.0, loss_x=1, loss_y=5))
            fill(s, "a", 5)
            fill(s, "b", 5)
            while s.backlog:
                s.schedule(0.0)
            s.dispatch_ops()
            assert (s.ops.fp_ops > 0) == expect_fp
