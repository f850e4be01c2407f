"""Per-stream packet queues: pinned-memory rings vs hardware-queue rings.

"Frames or packets are stored in circular buffers on a per-stream basis ...
Using a circular queue for each stream eliminates the need for
synchronization between the scheduler that selects the next packet for
service, and the server that queues packets to be scheduled." (Figure 4b.)

Two builds of the same ring:

* :class:`CircularBufferQueue` — descriptors in pinned local card memory
  (the Table 1/2 build); accesses tally normal memory references, so the
  data cache matters.
* :class:`HardwareQueueRing` — descriptor *handles* in the i960 RD's
  memory-mapped register file (the Table 3 build); accesses tally MMIO
  references, which bypass the cache and generate no external bus cycles.
  Frames themselves always stay in pinned memory ("the actual frames are
  located in pinned local memory address space").
"""

from __future__ import annotations

from typing import Optional

from repro.fixedpoint import OpCounter
from repro.hw.memory import HardwareQueueFile
from repro.media.frames import FrameDescriptor

__all__ = ["PacketQueue", "CircularBufferQueue", "HardwareQueueRing", "QueueFullError"]


class QueueFullError(RuntimeError):
    """Raised when a producer injects into a full ring."""


class PacketQueue:
    """Interface shared by both ring builds.

    Single producer + single consumer by construction (separate head/tail
    pointers) — no locking, as in the paper.
    """

    def __init__(self, stream_id: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.stream_id = stream_id
        self.capacity = capacity
        self._head = 0  # scheduler reads here
        self._tail = 0  # producer writes here
        self.enqueued_total = 0
        self.dequeued_total = 0

    def __len__(self) -> int:
        return self._tail - self._head

    @property
    def empty(self) -> bool:
        return self._head == self._tail

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    # subclass storage hooks ------------------------------------------------
    def _store(self, slot: int, desc: FrameDescriptor, ops: OpCounter) -> None:
        raise NotImplementedError

    def _load(self, slot: int, ops: OpCounter) -> FrameDescriptor:
        raise NotImplementedError

    # ring operations ----------------------------------------------------------
    def enqueue(self, desc: FrameDescriptor, ops: OpCounter) -> None:
        """Producer side: write at the tail pointer."""
        if self.full:
            raise QueueFullError(f"stream {self.stream_id!r} ring full")
        self._store(self._tail % self.capacity, desc, ops)
        self._tail += 1
        self.enqueued_total += 1
        ops.int_ops += 2  # tail increment + wrap
        ops.mem_writes += 1  # publish new tail

    def head(self, ops: OpCounter) -> Optional[FrameDescriptor]:
        """Scheduler side: peek the head-of-line descriptor."""
        ops.mem_reads += 1  # load head/tail pointer pair (same line)
        ops.branches += 1
        if self.empty:
            return None
        return self._load(self._head % self.capacity, ops)

    def pop(self, ops: OpCounter) -> FrameDescriptor:
        """Scheduler side: consume the head-of-line descriptor."""
        desc = self.head(ops)
        if desc is None:
            raise IndexError(f"stream {self.stream_id!r} ring empty")
        self._head += 1
        self.dequeued_total += 1
        ops.int_ops += 2
        ops.mem_writes += 1  # publish new head
        return desc


class CircularBufferQueue(PacketQueue):
    """Ring of descriptors in pinned local memory."""

    def __init__(self, stream_id: str, capacity: int = 256) -> None:
        super().__init__(stream_id, capacity)
        self._slots: list[Optional[FrameDescriptor]] = [None] * capacity

    def _store(self, slot: int, desc: FrameDescriptor, ops: OpCounter) -> None:
        self._slots[slot] = desc
        ops.mem_writes += 1

    def _load(self, slot: int, ops: OpCounter) -> FrameDescriptor:
        ops.mem_reads += 1
        desc = self._slots[slot]
        assert desc is not None
        return desc


class HardwareQueueRing(PacketQueue):
    """Ring of descriptor handles in the MMIO register file.

    Each 32-bit register stores a handle; a side table in pinned memory maps
    handles to descriptors (the register itself is only 32 bits wide). The
    register accesses are the point: they cost fixed MMIO time, untouched by
    the data cache.
    """

    def __init__(
        self,
        stream_id: str,
        registers: HardwareQueueFile,
        base: int,
        capacity: int,
    ) -> None:
        if base < 0 or base + capacity > len(registers):
            raise ValueError(
                f"register window [{base}, {base + capacity}) exceeds the "
                f"{len(registers)}-register file"
            )
        super().__init__(stream_id, capacity)
        self.registers = registers
        self.base = base
        self._handles: dict[int, FrameDescriptor] = {}
        self._next_handle = 1  # 0 means empty register

    def _store(self, slot: int, desc: FrameDescriptor, ops: OpCounter) -> None:
        handle = self._next_handle
        self._next_handle = (self._next_handle + 1) & 0xFFFFFFFF or 1
        self._handles[handle] = desc
        self.registers.write(self.base + slot, handle, ops=ops)

    def _load(self, slot: int, ops: OpCounter) -> FrameDescriptor:
        handle = self.registers.read(self.base + slot, ops=ops)
        try:
            return self._handles[handle]
        except KeyError:
            raise RuntimeError(
                f"register {self.base + slot} holds unknown handle {handle}"
            ) from None

    def pop(self, ops: OpCounter) -> FrameDescriptor:
        desc = super().pop(ops)
        # Release the consumed slot's handle so the side table stays bounded
        # by the ring capacity (the embedded build reuses descriptor slots).
        slot = (self._head - 1) % self.capacity
        self._handles.pop(self.registers.inspect(self.base + slot), None)
        return desc
