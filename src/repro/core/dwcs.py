"""Dynamic Window-Constrained Scheduling (DWCS).

The algorithm of West/Schwan (ICMCS'99, GIT-CC-98-29) as embedded by the
paper on the i960 RD: per-stream circular buffers hold frame descriptors;
head-of-line packets are ordered by the precedence rules in
:mod:`repro.core.selection`; servicing and deadline misses adjust each
stream's current window constraint (x', y'):

**Serviced before its deadline** (stream *i*)::

    if x' > 0:            # losses still tolerable
        y' -= 1
        if x' >= y':      # the rest of the window may all be lost
            (x', y') = (x, y)
    elif y' > 0:          # zero tolerance: every remaining packet must go
        y' -= 1
        if y' == 0:
            (x', y') = (x, y)

**Missed its deadline** (stream *j*; packet dropped if the *current*
window still tolerates loss — x' > 0 and drop_late — else transmitted
late)::

    if x' > 0:
        x' -= 1; y' -= 1
        if x' >= y':
            (x', y') = (x, y)
    else:                 # constraint violation: the window is blown
        violations += 1
        (x', y') = (x, y) # restart counting over a fresh window

Deadlines: packet *k* of a stream carries ``anchor + (k+1)·T`` where *T* is
the stream's request period, fixed at enqueue ("each successive packet in a
stream has a deadline that is offset by a fixed amount from its
predecessor").

Pacing: by default the scheduler is **non-work-conserving** — a packet is
not eligible before its release time ``deadline − T`` — which is what makes
a backlogged stream settle at its natural bandwidth (Figures 7/9) instead
of bursting at wire speed. The microbenchmarks (Tables 1–3) set
``work_conserving=True`` to drain a pre-filled buffer back-to-back, exactly
as the paper's measurement loop does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.fixedpoint import ArithmeticContext, FixedPointContext, OpCounter
from repro.media.frames import FrameDescriptor, MediaFrame

from .attributes import StreamSpec, StreamState
from .costs import DWCSCostModel
from .queues import CircularBufferQueue, PacketQueue
from .selection import DualHeaps, Entry, SelectionStructure, compare_entries

__all__ = ["DWCSScheduler", "Decision", "SchedulerStats"]

QueueFactory = Callable[[str], PacketQueue]
SelectionFactory = Callable[[ArithmeticContext], SelectionStructure]


@dataclass(slots=True)
class Decision:
    """Outcome of one scheduling cycle (built positionally: one per cycle)."""

    #: descriptor chosen for transmission (None if nothing eligible)
    serviced: Optional[FrameDescriptor]
    #: the serviced packet had already missed its deadline (sent late)
    late: bool
    #: packets dropped during this cycle's miss processing
    dropped: list[FrameDescriptor]
    #: operations charged for this cycle (decision only, not dispatch)
    ops: OpCounter
    #: when nothing is eligible: earliest release time among heads (µs)
    idle_until: Optional[float] = None


@dataclass
class SchedulerStats:
    """Aggregate counters across all streams."""

    decisions: int = 0
    serviced: int = 0
    dropped: int = 0
    sent_late: int = 0
    violations: int = 0


class DWCSScheduler:
    """The DWCS packet scheduler core (platform-independent).

    Parameters
    ----------
    ctx:
        Arithmetic context — fixed-point or software-FP build.
    costs:
        Straight-line code charges (see :mod:`repro.core.costs`).
    selection_factory:
        Head-of-line selection structure (dual heaps by default).
    queue_factory:
        Per-stream ring constructor (pinned-memory circular buffer by
        default; the hardware-queue build passes a register-file ring).
    work_conserving:
        See module docstring.
    """

    def __init__(
        self,
        ctx: Optional[ArithmeticContext] = None,
        costs: Optional[DWCSCostModel] = None,
        selection_factory: SelectionFactory = DualHeaps,
        queue_factory: Optional[QueueFactory] = None,
        work_conserving: bool = False,
        miss_scan: str = "descriptor-loop",
    ) -> None:
        if miss_scan not in ("descriptor-loop", "structure"):
            raise ValueError("miss_scan must be 'descriptor-loop' or 'structure'")
        self.ctx = ctx if ctx is not None else FixedPointContext()
        self.costs = costs if costs is not None else DWCSCostModel()
        self.selection = selection_factory(self.ctx)
        self.queue_factory: QueueFactory = (
            queue_factory if queue_factory is not None else CircularBufferQueue
        )
        self.work_conserving = work_conserving
        #: 'descriptor-loop' walks every stream each cycle, as the paper's
        #: embedded code does ("the scheduler loops through the frame
        #: descriptors"); 'structure' asks the selection structure for the
        #: late cohort — the scalable build (O(k log n) with dual heaps).
        self.miss_scan = miss_scan
        #: optional :class:`repro.sim.Tracer` receiving 'dwcs' events
        #: (decision / drop / late / violation), zero-cost when unset
        self.tracer = None
        # Unify the ledgers: all context arithmetic charges to the
        # scheduler's counter so per-cycle deltas capture everything.
        self.ctx.ops = OpCounter()
        self.streams: dict[str, StreamState] = {}
        self.queues: dict[str, PacketQueue] = {}
        self._entries: dict[str, Entry] = {}
        self._anchor: dict[str, float] = {}
        self._created = 0
        #: lifetime operation ledger (all cycles)
        self.ops = self.ctx.ops
        self.stats = SchedulerStats()
        #: per-dispatch op tally of the ratio-call loop, computed lazily on
        #: the first dispatch (see :meth:`dispatch_ops`)
        self._dispatch_ratio_delta: Optional[OpCounter] = None

    # -- stream management -----------------------------------------------------
    def add_stream(self, spec: StreamSpec) -> StreamState:
        if spec.stream_id in self.streams:
            raise ValueError(f"duplicate stream {spec.stream_id!r}")
        state = StreamState(spec, created_seq=self._created)
        self._created += 1
        self.streams[spec.stream_id] = state
        self.queues[spec.stream_id] = self.queue_factory(spec.stream_id)
        return state

    def remove_stream(self, stream_id: str) -> None:
        """Tear down an (empty) stream."""
        if len(self.queues[stream_id]):
            raise RuntimeError(f"stream {stream_id!r} still has queued packets")
        entry = self._entries.pop(stream_id, None)
        if entry is not None:  # pragma: no cover - empty streams have no entry
            self.selection.remove(entry, self.ops)
        del self.streams[stream_id]
        del self.queues[stream_id]
        self._anchor.pop(stream_id, None)

    # -- checkpoint / migration (HA plane) --------------------------------------
    def export_stream(self, stream_id: str) -> dict:
        """Portable snapshot of one stream's scheduling state.

        Carries everything :meth:`adopt_stream` needs to continue the
        stream's window accounting and deadline sequence on another
        scheduler instance: the immutable spec, the mutable
        :meth:`~repro.core.attributes.StreamState.checkpoint`, the deadline
        anchor, and the count of deadlines already assigned.
        """
        state = self.streams[stream_id]
        return {
            "spec": state.spec,
            "state": state.checkpoint(),
            "anchor_us": self._anchor.get(stream_id),
            "enqueued_total": self.queues[stream_id].enqueued_total,
        }

    def adopt_stream(self, snapshot: dict) -> StreamState:
        """Admit a migrated stream, continuing its exported state.

        The stream starts with an empty queue (in-flight frames died with
        the failed card); the restored window constraint, tallies, and
        deadline sequence mean the next enqueued frame carries deadline
        ``anchor + (enqueued_total+1)·T`` — exactly the deadline it would
        have carried on the original card.
        """
        spec: StreamSpec = snapshot["spec"]
        state = self.add_stream(spec)
        state.restore(snapshot["state"])
        if snapshot["anchor_us"] is not None:
            self._anchor[spec.stream_id] = snapshot["anchor_us"]
        self.queues[spec.stream_id].enqueued_total = snapshot["enqueued_total"]
        return state

    @property
    def backlog(self) -> int:
        """Total packets queued across streams."""
        return sum(map(len, self.queues.values()))

    def queue_depth(self, stream_id: str) -> int:
        return len(self.queues[stream_id])

    # -- producer side --------------------------------------------------------------
    def enqueue(self, frame: MediaFrame, now_us: float, address: int = 0) -> FrameDescriptor:
        """Inject a frame; assigns the packet deadline and updates heads."""
        state = self.streams.get(frame.stream_id)
        if state is None:
            raise KeyError(f"unknown stream {frame.stream_id!r}")
        queue = self.queues[frame.stream_id]
        anchor = self._anchor.setdefault(frame.stream_id, now_us)
        k = queue.enqueued_total  # packets already assigned deadlines
        desc = FrameDescriptor(
            frame=frame,
            address=address,
            deadline_us=anchor + (k + 1) * state.spec.period_us,
            enqueued_at_us=now_us,
        )
        was_empty = queue.empty
        queue.enqueue(desc, self.ops)
        if was_empty:
            self._promote_head(state, queue)
        return desc

    # -- the scheduling cycle ----------------------------------------------------------
    def schedule(self, now_us: float) -> Decision:
        """Run one full DWCS cycle: miss processing, selection, adjustment."""
        ops_before = self.ops.copy()
        self.costs.charge_decision_base(self.ops)
        self.stats.decisions += 1
        if not self._entries:
            # No stream has a head-of-line packet: the miss scan, the
            # selection and the release search would find nothing and
            # charge nothing beyond the decision base already charged.
            return Decision(None, False, [], self.ops.snapshot_delta(ops_before))

        dropped = self._process_misses(now_us)
        entry = self._select_eligible(now_us)

        if entry is None:
            idle_until = self._earliest_release() if not self.work_conserving else None
            return Decision(
                None, False, dropped, self.ops.snapshot_delta(ops_before), idle_until
            )

        state = self.streams[entry.stream_id]
        queue = self.queues[entry.stream_id]
        desc = queue.pop(self.ops)
        late = now_us > desc.deadline_us
        if self.tracer is not None and self.tracer.wants("dwcs"):
            self.tracer.emit(
                "dwcs",
                "late" if late else "decision",
                stream=desc.stream_id,
                seq=desc.frame.seqno,
                deadline=desc.deadline_us,
            )
        if late:
            # Miss processing already adjusted the window when the deadline
            # passed; the packet simply goes out late now.
            state.sent_late += 1
            self.stats.sent_late += 1
        else:
            self.costs.charge_adjustment(self.ops)
            self._adjust_serviced(state)
            state.serviced += 1
            self.stats.serviced += 1
        self._refresh_head(state, queue, entry)
        return Decision(desc, late, dropped, self.ops.snapshot_delta(ops_before))

    def dispatch_ops(self) -> OpCounter:
        """Charge and return the device-programming cost of one dispatch.

        Includes the arithmetic-context ``ratio`` evaluations of the
        dispatch path's rate bookkeeping — the reason even the
        scheduler-bypassed path is slower under software FP (Table 1).
        """
        before = self.ops.copy()
        self.costs.charge_dispatch(self.ops)
        # The ratio calls exist only for their op tally (the computed value
        # is discarded), and the tally per call is context-dependent but
        # constant — so run the loop once against a scratch ledger and
        # replay the recorded delta on every later dispatch.
        delta = self._dispatch_ratio_delta
        if delta is None:
            scratch = OpCounter()
            saved = self.ctx.ops
            self.ctx.ops = scratch
            try:
                for _ in range(self.costs.dispatch_ratio_calls):
                    self.ctx.ratio(1, 2)
            finally:
                self.ctx.ops = saved
            delta = self._dispatch_ratio_delta = scratch
        self.ops.add(delta)
        return self.ops.snapshot_delta(before)

    # -- window adjustments ------------------------------------------------------
    def _adjust_serviced(self, state: StreamState) -> None:
        if state.x_cur > 0:
            state.y_cur -= 1
            if state.x_cur >= state.y_cur:
                state.reset_window()
        elif state.y_cur > 0:
            state.y_cur -= 1
            if state.y_cur == 0:
                state.reset_window()

    def _adjust_missed(self, state: StreamState) -> None:
        if state.x_cur > 0:
            state.x_cur -= 1
            state.y_cur -= 1
            if state.x_cur >= state.y_cur:
                state.reset_window()
        else:
            # x' == 0: this miss blows the current window — a violation.
            # The window restarts (the constraint over the blown window can
            # no longer be met; counting continues over a fresh window).
            state.violations += 1
            self.stats.violations += 1
            state.reset_window()
            if self.tracer is not None and self.tracer.wants("dwcs"):
                self.tracer.emit(
                    "dwcs",
                    "violation",
                    stream=state.stream_id,
                    total=state.violations,
                )

    # -- miss processing ------------------------------------------------------------
    def _process_misses(self, now_us: float) -> list[FrameDescriptor]:
        dropped: list[FrameDescriptor] = []
        if self.miss_scan == "structure":
            candidates = [
                (e.stream_id, e) for e in self.selection.late_entries(now_us, self.ops)
            ]
        else:
            candidates = list(self._entries.items())
        # The examination charge is a constant per-stream delta: apply the
        # whole cohort's worth in one multiply-accumulate up front, and
        # tally the (equally constant) window-adjustment charges to apply
        # the same way at the end — in a finally, so a scan that dies
        # mid-loop still charges what it adjusted, exactly as the old
        # per-call form did. Totals are identical to that form — the op
        # ledger only ever reports per-cycle sums.
        self.costs.charge_streams_examined(self.ops, len(candidates))
        n_adjusted = 0
        try:
            for stream_id, entry in candidates:
                state = self.streams[stream_id]
                queue = self.queues[stream_id]
                changed = False
                while True:
                    head = queue.head(self.ops)
                    if head is None:
                        break
                    if head.miss_handled or head.deadline_us >= now_us:
                        break
                    changed = True
                    # A late packet may be dropped only while the *current*
                    # window still tolerates loss (x' > 0); with x' == 0 the
                    # packet must be transmitted late (and the miss is a
                    # violation). Evaluate before the adjustment consumes x'.
                    droppable = state.spec.drop_late and state.x_cur > 0
                    n_adjusted += 1
                    self._adjust_missed(state)
                    if droppable:
                        queue.pop(self.ops)
                        state.dropped += 1
                        self.stats.dropped += 1
                        dropped.append(head)
                        if self.tracer is not None and self.tracer.wants("dwcs"):
                            self.tracer.emit(
                                "dwcs", "drop",
                                stream=head.stream_id, seq=head.frame.seqno,
                                deadline=head.deadline_us,
                            )
                        # loop: the next head may be late too
                    else:
                        # transmitted late: keep at head, count the miss once
                        head.miss_handled = True
                        break
                if changed:
                    # head and/or window constraint moved: restore order
                    self._refresh_head(state, queue, entry, may_be_same=True)
        finally:
            self.costs.charge_adjustments(self.ops, n_adjusted)
        return dropped

    # -- selection ---------------------------------------------------------------------
    def _eligible(self, entry: Entry, now_us: float) -> bool:
        if self.work_conserving:
            return True
        state = self.streams[entry.stream_id]
        release = (state.deadline_us or 0.0) - state.spec.period_us
        return now_us >= release

    def _select_eligible(self, now_us: float) -> Optional[Entry]:
        if self.miss_scan == "descriptor-loop":
            # the embedded build re-encodes every stream's priority per
            # cycle while walking the descriptors — a constant charge per
            # stream, applied for the whole cohort at once
            self.costs.charge_streams_examined(self.ops, len(self._entries))
        best = self.selection.select(self.ops)
        if best is None:
            return None
        if self._eligible(best, now_us):
            return best
        # The EDF-best head is not released yet; fall back to scanning for
        # any eligible entry (rare: only when periods differ widely).
        candidates = [
            e for e in self._entries.values() if self._eligible(e, now_us)
        ]
        if not candidates:
            return None
        chosen = candidates[0]
        for other in candidates[1:]:
            if compare_entries(other, chosen, self.ctx, self.ops) < 0:
                chosen = other
        return chosen

    def _earliest_release(self) -> Optional[float]:
        releases = [
            (self.streams[sid].deadline_us or 0.0) - self.streams[sid].spec.period_us
            for sid in self._entries
        ]
        return min(releases) if releases else None

    # -- head/entry maintenance -------------------------------------------------------
    def _promote_head(self, state: StreamState, queue: PacketQueue) -> None:
        head = queue.head(self.ops)
        assert head is not None
        state.deadline_us = head.deadline_us
        entry = Entry(state, head_enqueued_at=head.enqueued_at_us)
        self._entries[state.stream_id] = entry
        self.selection.add(entry, self.ops)

    def _refresh_head(
        self, state: StreamState, queue: PacketQueue, entry: Entry, may_be_same: bool = False
    ) -> None:
        head = queue.head(self.ops)
        if head is None:
            if state.stream_id in self._entries:
                self.selection.remove(entry, self.ops)
                del self._entries[state.stream_id]
            return
        if may_be_same and head.deadline_us == state.deadline_us:
            # head unchanged; constraint may still have moved — re-sift
            self.selection.reorder(entry, self.ops)
            return
        state.deadline_us = head.deadline_us
        entry.head_enqueued_at = head.enqueued_at_us
        self.selection.reorder(entry, self.ops)

    def __repr__(self) -> str:
        return (
            f"<DWCSScheduler {self.ctx.label} {self.selection.name} "
            f"streams={len(self.streams)} backlog={self.backlog}>"
        )
