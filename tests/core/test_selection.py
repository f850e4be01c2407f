"""Selection structures: rule order and dual-heaps/linear-scan equivalence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DWCSScheduler, DualHeaps, LinearScan, StreamSpec
from repro.core.selection import Entry, compare_entries
from repro.core.attributes import StreamState
from repro.fixedpoint import FixedPointContext, OpCounter
from repro.media import FrameType, MediaFrame


def entry(stream_id, deadline, x, y, enq=0.0, seq=0):
    state = StreamState(
        StreamSpec(stream_id, period_us=1000.0, loss_x=x, loss_y=y),
        created_seq=seq,
    )
    state.deadline_us = deadline
    return Entry(state, head_enqueued_at=enq)


class TestCompareEntries:
    def cmp(self, a, b):
        return compare_entries(a, b, FixedPointContext(), OpCounter())

    def test_total_order_antisymmetry(self):
        a = entry("a", 100.0, 1, 4, seq=0)
        b = entry("b", 100.0, 2, 4, seq=1)
        assert self.cmp(a, b) == -self.cmp(b, a)

    def test_deadline_dominates_constraint(self):
        early_loose = entry("a", 100.0, 3, 4)
        late_strict = entry("b", 200.0, 0, 4)
        assert self.cmp(early_loose, late_strict) < 0

    def test_self_compare_zero(self):
        a = entry("a", 100.0, 1, 4)
        assert self.cmp(a, a) == 0

    def test_none_deadline_sorts_last(self):
        anchored = entry("a", 100.0, 1, 4)
        floating = entry("b", None, 1, 4, seq=1)
        assert self.cmp(anchored, floating) < 0


class TestStructureEquivalence:
    @given(
        specs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6),  # deadline
                st.integers(0, 5),  # x
                st.integers(1, 6),  # y (adjusted to >= x)
                st.floats(min_value=0.0, max_value=1e5),  # head enqueue time
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100)
    def test_dual_heaps_and_linear_scan_agree(self, specs):
        ctx1, ctx2 = FixedPointContext(), FixedPointContext()
        scan, heaps = LinearScan(ctx1), DualHeaps(ctx2)
        ops = OpCounter()
        for i, (dl, x, y, enq) in enumerate(specs):
            y = max(y, x)
            if y == 0:
                y = 1
            e1 = entry(f"s{i}", dl, x, y, enq=enq, seq=i)
            e2 = entry(f"s{i}", dl, x, y, enq=enq, seq=i)
            scan.add(e1, ops)
            heaps.add(e2, ops)
        a = scan.select(ops)
        b = heaps.select(ops)
        assert a is not None and b is not None
        assert a.stream_id == b.stream_id

    @given(
        n_streams=st.integers(2, 6),
        n_frames=st.integers(1, 12),
        periods=st.lists(st.sampled_from([100.0, 250.0, 400.0]), min_size=6, max_size=6),
        step=st.sampled_from([50.0, 150.0, 350.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_scheduler_runs_identically(self, n_streams, n_frames, periods, step):
        """Whole-run equivalence: same service/drop history either way."""
        histories = []
        for factory in (LinearScan, DualHeaps):
            s = DWCSScheduler(selection_factory=factory, work_conserving=True)
            for i in range(n_streams):
                s.add_stream(
                    StreamSpec(f"s{i}", period_us=periods[i], loss_x=i % 3, loss_y=(i % 3) + 2)
                )
            for i in range(n_streams):
                for k in range(n_frames):
                    s.enqueue(MediaFrame(f"s{i}", k, FrameType.I, 1000, 0.0), 0.0)
            hist = []
            t = 0.0
            guard = 0
            while s.backlog and guard < 1000:
                d = s.schedule(t)
                hist.append(
                    (
                        d.serviced.stream_id if d.serviced else None,
                        d.serviced.frame.seqno if d.serviced else -1,
                        tuple((x.stream_id, x.frame.seqno) for x in d.dropped),
                    )
                )
                t += step
                guard += 1
            histories.append(hist)
        assert histories[0] == histories[1]

    def test_heap_structure_charges_fewer_scan_ops_at_scale(self):
        """The dual-heap build exists for O(log n) selection."""
        ctxs = (FixedPointContext(), FixedPointContext())
        scan, heaps = LinearScan(ctxs[0]), DualHeaps(ctxs[1])
        scan_ops, heap_ops = OpCounter(), OpCounter()
        n = 64
        for i in range(n):
            scan.add(entry(f"s{i}", float(i * 10), 1, 4, seq=i), scan_ops)
            heaps.add(entry(f"s{i}", float(i * 10), 1, 4, seq=i), heap_ops)
        scan_before = scan_ops.total() + ctxs[0].ops.total()
        heap_before = heap_ops.total() + ctxs[1].ops.total()
        scan.select(scan_ops)
        heaps.select(heap_ops)
        scan_cost = scan_ops.total() + ctxs[0].ops.total() - scan_before
        heap_cost = heap_ops.total() + ctxs[1].ops.total() - heap_before
        assert heap_cost < scan_cost / 2

    def test_remove_and_reorder(self):
        ctx = FixedPointContext()
        heaps = DualHeaps(ctx)
        ops = OpCounter()
        entries = [entry(f"s{i}", float(100 + i), 1, 4, seq=i) for i in range(5)]
        for e in entries:
            heaps.add(e, ops)
        heaps.remove(entries[0], ops)
        assert heaps.select(ops).stream_id == "s1"
        entries[4].state.deadline_us = 1.0
        heaps.reorder(entries[4], ops)
        assert heaps.select(ops).stream_id == "s4"
        assert len(heaps) == 4
