"""Additional schedule representations: sorted list and calendar queue.

Paper §3.1.1: the extensible scheduler design "allows different data
structures to be used for experimentation (FCFS circular buffers, sorted
lists, heaps or calendar queues) with different packet schedule
representations". :mod:`repro.core.selection` provides the linear scan and
the dual heaps; this module adds the remaining two:

* :class:`SortedList` — entries kept fully ordered by the DWCS total order;
  selection is O(1), maintenance is O(n) shifts per reorder (binary search
  for position, memmove-style shifting — cheap for small n, ruinous at
  scale);
* :class:`CalendarQueue` — deadline-bucketed days (Brown's calendar queue):
  O(1) expected enqueue/dequeue when deadlines spread uniformly, degrading
  when many heads share a bucket. Ties within a bucket fall back to the
  DWCS precedence rules.

All four structures implement the same total order, so scheduler decisions
are identical — only operation profiles differ (verified by tests).
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

from repro.fixedpoint import ArithmeticContext, OpCounter

from .selection import Entry, SelectionStructure, compare_entries

__all__ = ["SortedList", "CalendarQueue"]


class SortedList(SelectionStructure):
    """Fully ordered entry list (insertion-sorted by the DWCS order)."""

    name = "sorted-list"

    def __init__(self, ctx: ArithmeticContext) -> None:
        super().__init__(ctx)
        self._entries: list[Entry] = []

    # -- maintenance ---------------------------------------------------------
    def _insert(self, entry: Entry, ops: OpCounter) -> None:
        # binary search for the insertion point (charged comparisons), then
        # shift-in (charged writes per moved slot)
        lo, hi = 0, len(self._entries)
        while lo < hi:
            mid = (lo + hi) // 2
            ops.mem_reads += 1
            if compare_entries(self._entries[mid], entry, self.ctx, ops) < 0:
                lo = mid + 1
            else:
                hi = mid
        self._entries.insert(lo, entry)
        ops.mem_writes += max(1, len(self._entries) - lo)

    def add(self, entry: Entry, ops: OpCounter) -> None:
        if entry in self._entries:
            raise ValueError("entry already present")
        self._insert(entry, ops)

    def remove(self, entry: Entry, ops: OpCounter) -> None:
        idx = self._index_of(entry, ops)
        self._entries.pop(idx)
        ops.mem_writes += max(1, len(self._entries) - idx)

    def reorder(self, entry: Entry, ops: OpCounter) -> None:
        idx = self._index_of(entry, ops)
        self._entries.pop(idx)
        ops.mem_writes += max(1, len(self._entries) - idx)
        self._insert(entry, ops)

    def _index_of(self, entry: Entry, ops: OpCounter) -> int:
        # identity scan: the list may be stale-ordered for this entry (its
        # key changed in place), so binary search cannot be trusted
        for i, e in enumerate(self._entries):
            ops.mem_reads += 1
            if e is entry:
                return i
        raise KeyError("entry not present")

    # -- queries --------------------------------------------------------------
    def select(self, ops: OpCounter) -> Optional[Entry]:
        # like the other three structures, an empty one is known free of
        # charge: DWCSScheduler.schedule skips an empty cycle's select
        if not self._entries:
            return None
        ops.mem_reads += 1
        return self._entries[0]

    def late_entries(self, now_us: float, ops: OpCounter) -> list[Entry]:
        # ordered by deadline-dominant order: late heads form a prefix
        late = []
        for e in self._entries:
            ops.mem_reads += 1
            ops.branches += 1
            dl = e.state.deadline_us
            if dl is not None and dl < now_us:
                late.append(e)
            else:
                break
        return late

    def __len__(self) -> int:
        return len(self._entries)

    def check_sorted(self) -> bool:
        """Verification helper: list obeys the total order."""
        scratch = OpCounter()
        return all(
            compare_entries(a, b, self.ctx, scratch) <= 0
            for a, b in zip(self._entries, self._entries[1:])
        )


class CalendarQueue(SelectionStructure):
    """Deadline-bucketed calendar over head-of-line entries.

    Non-wrapping day index (``deadline // day_width``), one bucket per
    occupied day: equal deadlines always share a bucket, so the earliest
    occupied day contains the DWCS winner and the precedence rules only run
    within that bucket — O(bucket) selection plus an O(#occupied days) min.
    Entries whose key changed in place must be re-filed via ``reorder``
    (tracked through a side map, as a real implementation stores the
    entry's bucket handle in the descriptor).
    """

    name = "calendar-queue"

    def __init__(self, ctx: ArithmeticContext, day_width_us: float = 10_000.0) -> None:
        super().__init__(ctx)
        if day_width_us <= 0:
            raise ValueError("day width must be positive")
        self.day_width_us = day_width_us
        self._days: dict[int, list[Entry]] = {}
        #: bucket handle per entry (survives in-place key changes)
        self._filed_in: dict[int, int] = {}
        self._count = 0

    _UNANCHORED_DAY = 1 << 62  # sorts after every real deadline

    def _day_of(self, entry: Entry) -> int:
        dl = entry.state.deadline_us
        if dl is None:
            return self._UNANCHORED_DAY
        return int(dl // self.day_width_us)

    # -- maintenance ------------------------------------------------------------
    def add(self, entry: Entry, ops: OpCounter) -> None:
        if id(entry) in self._filed_in:
            raise ValueError("entry already present")
        day = self._day_of(entry)
        ops.int_ops += 1  # deadline -> bucket index
        ops.mem_writes += 1
        self._days.setdefault(day, []).append(entry)
        self._filed_in[id(entry)] = day
        self._count += 1

    def remove(self, entry: Entry, ops: OpCounter) -> None:
        day = self._filed_in.pop(id(entry), None)
        if day is None:
            raise KeyError("entry not present")
        bucket = self._days[day]
        ops.mem_reads += len(bucket)
        bucket.remove(entry)
        ops.mem_writes += 1
        if not bucket:
            del self._days[day]
        self._count -= 1

    def reorder(self, entry: Entry, ops: OpCounter) -> None:
        self.remove(entry, ops)
        self.add(entry, ops)

    # -- queries -----------------------------------------------------------------
    def select(self, ops: OpCounter) -> Optional[Entry]:
        if self._count == 0:
            return None
        first_day = min(self._days)
        ops.branches += len(self._days)  # min over the occupied-day index
        bucket = self._days[first_day]
        best = bucket[0]
        ops.mem_reads += 1
        for e in bucket[1:]:
            ops.mem_reads += 1
            if compare_entries(e, best, self.ctx, ops) < 0:
                best = e
        return best

    def late_entries(self, now_us: float, ops: OpCounter) -> list[Entry]:
        late = []
        horizon = int(now_us // self.day_width_us)
        for day in sorted(self._days):
            ops.branches += 1
            if day > horizon:
                break
            for e in self._days[day]:
                ops.mem_reads += 1
                ops.branches += 1
                dl = e.state.deadline_us
                if dl is not None and dl < now_us:
                    late.append(e)
        return late

    def __len__(self) -> int:
        return self._count
