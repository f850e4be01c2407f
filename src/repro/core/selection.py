"""DWCS precedence rules and head-of-line selection structures.

The pairwise precedence rules (West/Schwan; see DESIGN.md §3):

1. earliest deadline first;
2. equal deadlines → lowest window-constraint x'/y' first;
3. equal deadlines, both constraints zero → highest window-denominator y';
4. equal deadlines, equal non-zero constraints → lowest window-numerator x';
5. all else equal → first-come-first-served.

Two selection structures implement the same total order:

* :class:`LinearScan` — O(n) sweep over head packets (the reference);
* :class:`DualHeaps` — the paper's embedded build (Figure 4a): a deadline
  heap plus a loss-tolerance heap over head-of-line packets.

Both must always pick the same stream (tested); they differ only in the
operation counts they charge, which is exactly the data-structure
"experimentation" the paper's extensible design calls for.
"""

from __future__ import annotations

from typing import Optional

from repro.fixedpoint import ArithmeticContext, OpCounter

from .attributes import StreamState
from .heaps import OpHeap

__all__ = ["Entry", "compare_entries", "SelectionStructure", "LinearScan", "DualHeaps"]


class Entry:
    """A stream's head-of-line scheduling entry."""

    __slots__ = ("state", "head_enqueued_at")

    def __init__(self, state: StreamState, head_enqueued_at: float) -> None:
        self.state = state
        self.head_enqueued_at = head_enqueued_at

    @property
    def stream_id(self) -> str:
        return self.state.stream_id

    def __repr__(self) -> str:
        return f"<Entry {self.stream_id!r} dl={self.state.deadline_us}>"


def compare_entries(a: Entry, b: Entry, ctx: ArithmeticContext, ops: OpCounter) -> int:
    """Total order over head packets; negative ⇒ *a* is served first."""
    sa, sb = a.state, b.state
    # Rule 1: earliest deadline first.
    ops.mem_reads += 2
    ops.branches += 1
    da, db = sa.deadline_us, sb.deadline_us
    if da != db:
        return -1 if (da is not None and (db is None or da < db)) else 1
    # Rule 2: lowest window-constraint first.
    ops.mem_reads += 2  # load both constraint fractions
    ca, cb = sa.constraint, sb.constraint
    order = ctx.compare(ca, cb)
    if order != 0:
        return order
    # Rule 3: both zero → highest window-denominator first.
    if ctx.is_zero(ca):
        ops.mem_reads += 2
        ops.branches += 1
        if sa.y_cur != sb.y_cur:
            return -1 if sa.y_cur > sb.y_cur else 1
    else:
        # Rule 4: equal non-zero constraints → lowest numerator first.
        ops.mem_reads += 2
        ops.branches += 1
        if sa.x_cur != sb.x_cur:
            return -1 if sa.x_cur < sb.x_cur else 1
    # Rule 5: FCFS on head-packet arrival, then stream creation order.
    ops.mem_reads += 2
    ops.branches += 1
    if a.head_enqueued_at != b.head_enqueued_at:
        return -1 if a.head_enqueued_at < b.head_enqueued_at else 1
    return -1 if sa.created_seq < sb.created_seq else (
        0 if sa.created_seq == sb.created_seq else 1
    )


class SelectionStructure:
    """Interface: maintain entries, select the highest-priority stream."""

    name = "abstract"

    def __init__(self, ctx: ArithmeticContext) -> None:
        self.ctx = ctx

    def add(self, entry: Entry, ops: OpCounter) -> None:
        raise NotImplementedError

    def remove(self, entry: Entry, ops: OpCounter) -> None:
        raise NotImplementedError

    def reorder(self, entry: Entry, ops: OpCounter) -> None:
        """Called after an entry's deadline/constraint changed in place."""
        raise NotImplementedError

    def select(self, ops: OpCounter) -> Optional[Entry]:
        raise NotImplementedError

    def late_entries(self, now_us: float, ops: OpCounter) -> list[Entry]:
        """Entries whose head deadline has passed (for miss processing).

        The structure-driven miss scan: a linear structure inspects every
        entry; the deadline heap finds the late cohort in O(k log n).
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LinearScan(SelectionStructure):
    """Reference O(n) sweep (also models the FCFS-circular-buffer variant
    of the paper's 'extensible scheduler design' discussion)."""

    name = "linear-scan"

    def __init__(self, ctx: ArithmeticContext) -> None:
        super().__init__(ctx)
        self._entries: list[Entry] = []

    def add(self, entry: Entry, ops: OpCounter) -> None:
        self._entries.append(entry)
        ops.mem_writes += 1

    def remove(self, entry: Entry, ops: OpCounter) -> None:
        # list.remove is an O(n) scan to the entry plus a left-shift of the
        # tail: charge the comparisons walked and the slots rewritten.
        idx = self._entries.index(entry)
        n = len(self._entries)
        ops.mem_reads += idx + 1
        ops.branches += idx + 1
        ops.mem_writes += n - idx  # tail shift + published length
        del self._entries[idx]

    def reorder(self, entry: Entry, ops: OpCounter) -> None:
        ops.mem_reads += 1  # nothing to maintain; order is scan-time

    def select(self, ops: OpCounter) -> Optional[Entry]:
        best: Optional[Entry] = None
        for entry in self._entries:
            ops.mem_reads += 1
            if best is None or compare_entries(entry, best, self.ctx, ops) < 0:
                best = entry
        return best

    def late_entries(self, now_us: float, ops: OpCounter) -> list[Entry]:
        late = []
        for entry in self._entries:
            ops.mem_reads += 1
            ops.branches += 1
            dl = entry.state.deadline_us
            if dl is not None and dl < now_us:
                late.append(entry)
        return late

    def __len__(self) -> int:
        return len(self._entries)


class DualHeaps(SelectionStructure):
    """The embedded build: deadline heap + loss-tolerance heap (Fig. 4a).

    Selection peeks the deadline heap; deadline ties among the top of the
    heap are resolved with loss-tolerance comparisons, mirroring how the
    embedded scheduler consults the second heap only on ties.
    """

    name = "dual-heaps"

    def __init__(self, ctx: ArithmeticContext) -> None:
        super().__init__(ctx)
        self._deadline_heap: OpHeap[Entry] = OpHeap(self._deadline_cmp)
        self._loss_heap: OpHeap[Entry] = OpHeap(self._loss_cmp)

    # heap comparators -------------------------------------------------------
    def _deadline_cmp(self, a: Entry, b: Entry, ops: OpCounter) -> int:
        da, db = a.state.deadline_us, b.state.deadline_us
        if da == db:
            return 0
        if da is None:
            return 1
        if db is None:
            return -1
        return -1 if da < db else 1

    def _loss_cmp(self, a: Entry, b: Entry, ops: OpCounter) -> int:
        return self.ctx.compare(a.state.constraint, b.state.constraint)

    # structure maintenance -------------------------------------------------------
    def add(self, entry: Entry, ops: OpCounter) -> None:
        self._deadline_heap.push(entry, ops)
        self._loss_heap.push(entry, ops)

    def remove(self, entry: Entry, ops: OpCounter) -> None:
        self._deadline_heap.remove(entry, ops)
        self._loss_heap.remove(entry, ops)

    def reorder(self, entry: Entry, ops: OpCounter) -> None:
        self._deadline_heap.update(entry, ops)
        self._loss_heap.update(entry, ops)

    def select(self, ops: OpCounter) -> Optional[Entry]:
        top = self._deadline_heap.peek()
        if top is None:
            return None
        deadline = top.state.deadline_us
        # Peek first: the second-best deadline sits at one of the root's
        # children (heap property — equal keys deeper down imply an equal
        # child), so the common no-tie case costs two comparisons instead
        # of a pop/push (two full sifts) of a single-entry cohort.
        tie = False
        for child in self._deadline_heap.peek_children():
            ops.mem_reads += 1
            ops.branches += 1
            if child.state.deadline_us == deadline:
                tie = True
                break
        if not tie:
            ops.mem_reads += 1  # load the winning entry's descriptor handle
            return top
        # Gather the deadline-tie cohort by popping equal-deadline entries
        # (the embedded code walks the heap top; pop/push-back charges the
        # equivalent sift work).
        cohort: list[Entry] = []
        while len(self._deadline_heap):
            candidate = self._deadline_heap.peek()
            assert candidate is not None
            ops.mem_reads += 1
            ops.branches += 1
            if candidate.state.deadline_us != deadline:
                break
            cohort.append(self._deadline_heap.pop_min(ops))
        best = cohort[0]
        for other in cohort[1:]:
            if compare_entries(other, best, self.ctx, ops) < 0:
                best = other
        for entry in cohort:
            self._deadline_heap.push(entry, ops)
        return best

    def late_entries(self, now_us: float, ops: OpCounter) -> list[Entry]:
        # Pop late heads off the deadline heap, then push them back: only
        # the late cohort (plus one peek) is ever touched — O(k log n).
        late: list[Entry] = []
        while len(self._deadline_heap):
            top = self._deadline_heap.peek()
            assert top is not None
            ops.mem_reads += 1
            ops.branches += 1
            dl = top.state.deadline_us
            if dl is None or dl >= now_us:
                break
            late.append(self._deadline_heap.pop_min(ops))
        for entry in late:
            self._deadline_heap.push(entry, ops)
        return late

    def __len__(self) -> int:
        return len(self._deadline_heap)
