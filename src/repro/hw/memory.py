"""Memory regions and the i960 RD's memory-mapped "hardware queues".

Two storage substrates matter to the paper's Table 2 vs Table 3 comparison:

* pinned local card memory (4 MB installed, expandable to 36 MB) holding
  frames and — in the Table 2 build — the circular buffers of frame
  descriptors;
* the I2O "hardware queues": **1004 32-bit memory-mapped registers** in
  local card address space whose accesses "do not generate any external bus
  cycles"; the Table 3 build keeps frame descriptors there.

:class:`MemoryRegion` does capacity accounting (the paper stresses compact
descriptors and single-copy frames *to conserve NI memory*);
:class:`HardwareQueueFile` is a bounds-checked register file that tallies
MMIO operations into an :class:`~repro.fixedpoint.OpCounter`.
"""

from __future__ import annotations

from typing import Optional

from repro.fixedpoint import OpCounter

__all__ = ["MemoryRegion", "Allocation", "HardwareQueueFile", "OutOfMemoryError"]

MB = 1 << 20


class OutOfMemoryError(MemoryError):
    """Raised when a region cannot satisfy an allocation."""


class Allocation:
    """A live allocation inside a :class:`MemoryRegion`."""

    __slots__ = ("region", "size", "tag", "freed")

    def __init__(self, region: "MemoryRegion", size: int, tag: str) -> None:
        self.region = region
        self.size = size
        self.tag = tag
        self.freed = False

    def free(self) -> None:
        if not self.freed:
            self.region._release(self)
            self.freed = True

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return f"<Allocation {self.tag!r} {self.size}B {state}>"


class MemoryRegion:
    """A fixed-capacity memory pool with tagged allocation accounting."""

    def __init__(self, capacity_bytes: int, name: str = "mem", pinned: bool = False) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.name = name
        #: VxWorks NI configuration pins all pages (no paging jitter)
        self.pinned = pinned
        self.used_bytes = 0
        self.peak_bytes = 0
        #: live allocations in allocation order; a dict (values unused)
        #: keeps that order under deletion and makes a release O(1)
        self._live: dict[Allocation, None] = {}

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, size: int, tag: str = "") -> Allocation:
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if size > self.free_bytes:
            raise OutOfMemoryError(
                f"{self.name}: cannot allocate {size}B ({self.free_bytes}B free "
                f"of {self.capacity_bytes}B)"
            )
        alloc = Allocation(self, size, tag)
        self.used_bytes += size
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self._live[alloc] = None
        return alloc

    def _release(self, alloc: Allocation) -> None:
        self.used_bytes -= alloc.size
        del self._live[alloc]

    def live_allocations(self, tag: Optional[str] = None) -> list[Allocation]:
        if tag is None:
            return list(self._live)
        return [a for a in self._live if a.tag == tag]

    def __repr__(self) -> str:
        return (
            f"<MemoryRegion {self.name!r} {self.used_bytes}/{self.capacity_bytes}B"
            f"{' pinned' if self.pinned else ''}>"
        )


class HardwareQueueFile:
    """The i960 RD's 1004-register memory-mapped queue space.

    Each register holds one 32-bit value (the Table 3 build stores one frame
    descriptor handle per register). Reads and writes are tallied as MMIO
    operations, which the CPU model prices without external bus cycles and
    without data-cache involvement.
    """

    NUM_REGISTERS = 1004
    REGISTER_MASK = 0xFFFFFFFF

    def __init__(self, ops: Optional[OpCounter] = None) -> None:
        self.ops = ops if ops is not None else OpCounter()
        self._regs = [0] * self.NUM_REGISTERS

    def __len__(self) -> int:
        return self.NUM_REGISTERS

    def read(self, index: int, ops: Optional[OpCounter] = None) -> int:
        self._check(index)
        (ops if ops is not None else self.ops).mmio_reads += 1
        return self._regs[index]

    def write(self, index: int, value: int, ops: Optional[OpCounter] = None) -> None:
        self._check(index)
        if not isinstance(value, int):
            raise TypeError("register value must be int")
        (ops if ops is not None else self.ops).mmio_writes += 1
        self._regs[index] = value & self.REGISTER_MASK

    def inspect(self, index: int) -> int:
        """Zero-cost register view for bookkeeping/tests (no MMIO charge)."""
        self._check(index)
        return self._regs[index]

    def _check(self, index: int) -> None:
        if not 0 <= index < self.NUM_REGISTERS:
            raise IndexError(
                f"hardware queue register {index} out of range "
                f"[0, {self.NUM_REGISTERS})"
            )

    def __repr__(self) -> str:
        return f"<HardwareQueueFile {self.NUM_REGISTERS}x32bit>"
