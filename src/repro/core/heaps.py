"""Op-counted binary heap.

The embedded DWCS build keeps head-of-line packets in two heaps (deadlines
and loss-tolerances, Figure 4a). This heap charges every comparison and
swap to an :class:`~repro.fixedpoint.OpCounter` so the heap-based selection
structure has an honest O(log n) cost profile relative to the linear scan.
"""

from __future__ import annotations

from typing import Callable, Generic, Optional, TypeVar

from repro.fixedpoint import OpCounter

__all__ = ["OpHeap"]

T = TypeVar("T")

# operation charges for one comparison / one swap inside the heap
_CMP_MEM_READS = 1
_CMP_INT_OPS = 1
_CMP_BRANCHES = 1
_SWAP_MEM_WRITES = 2


class OpHeap(Generic[T]):
    """Binary min-heap ordered by a caller-supplied comparator.

    ``compare(a, b, ops)`` returns <0/0/>0; it may itself charge ops (e.g.
    fraction comparisons through an arithmetic context).
    """

    def __init__(self, compare: Callable[[T, T, OpCounter], int]) -> None:
        self._compare = compare
        self._items: list[T] = []
        self._index: dict[int, int] = {}  # id(item) -> position

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: T) -> bool:
        return id(item) in self._index

    def peek(self) -> Optional[T]:
        return self._items[0] if self._items else None

    def peek_children(self) -> list[T]:
        """The root's children — the only candidates for the second minimum."""
        return self._items[1:3]

    def push(self, item: T, ops: OpCounter) -> None:
        if id(item) in self._index:
            raise ValueError("item already in heap")
        self._items.append(item)
        self._index[id(item)] = len(self._items) - 1
        ops.mem_writes += 1
        self._sift_up(len(self._items) - 1, ops)

    def pop_min(self, ops: OpCounter) -> T:
        if not self._items:
            raise IndexError("pop from empty heap")
        top = self._items[0]
        last = self._items.pop()
        del self._index[id(top)]
        ops.mem_reads += 1
        if self._items:
            self._items[0] = last
            self._index[id(last)] = 0
            ops.mem_writes += 1
            self._sift_down(0, ops)
        return top

    def remove(self, item: T, ops: OpCounter) -> None:
        """Remove an arbitrary item (stream went idle)."""
        pos = self._index.get(id(item))
        if pos is None:
            raise KeyError("item not in heap")
        last = self._items.pop()
        del self._index[id(item)]
        ops.mem_reads += 1
        if pos < len(self._items):
            self._items[pos] = last
            self._index[id(last)] = pos
            ops.mem_writes += 1
            self._sift_down(pos, ops)
            self._sift_up(self._index[id(last)], ops)

    def update(self, item: T, ops: OpCounter) -> None:
        """Restore heap order after *item*'s key changed in place."""
        pos = self._index.get(id(item))
        if pos is None:
            raise KeyError("item not in heap")
        self._sift_up(pos, ops)
        self._sift_down(self._index[id(item)], ops)

    # -- internals ---------------------------------------------------------
    def _cmp(self, a: T, b: T, ops: OpCounter) -> int:
        ops.mem_reads += _CMP_MEM_READS
        ops.int_ops += _CMP_INT_OPS
        ops.branches += _CMP_BRANCHES
        return self._compare(a, b, ops)

    def _swap(self, i: int, j: int, ops: OpCounter) -> None:
        items = self._items
        items[i], items[j] = items[j], items[i]
        self._index[id(items[i])] = i
        self._index[id(items[j])] = j
        ops.mem_writes += _SWAP_MEM_WRITES

    def _sift_up(self, pos: int, ops: OpCounter) -> None:
        while pos > 0:
            parent = (pos - 1) // 2
            if self._cmp(self._items[pos], self._items[parent], ops) < 0:
                self._swap(pos, parent, ops)
                pos = parent
            else:
                break

    def _sift_down(self, pos: int, ops: OpCounter) -> None:
        n = len(self._items)
        while True:
            left, right = 2 * pos + 1, 2 * pos + 2
            best = pos
            if left < n and self._cmp(self._items[left], self._items[best], ops) < 0:
                best = left
            if right < n and self._cmp(self._items[right], self._items[best], ops) < 0:
                best = right
            if best == pos:
                break
            self._swap(pos, best, ops)
            pos = best

    def items(self) -> list[T]:
        """Unordered view of heap contents (for verification)."""
        return list(self._items)

    def check_invariant(self, ops: Optional[OpCounter] = None) -> bool:
        """True when every parent orders before its children."""
        scratch = ops if ops is not None else OpCounter()
        for i in range(1, len(self._items)):
            parent = (i - 1) // 2
            if self._compare(self._items[i], self._items[parent], scratch) < 0:
                return False
        return True
