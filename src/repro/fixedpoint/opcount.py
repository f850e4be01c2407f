"""Abstract operation accounting.

The reproduction times code by *counting operations* while the real algorithm
executes, then converting counts to microseconds with a CPU cost model
(:mod:`repro.hw.cpu`). ``OpCounter`` is the ledger: every arithmetic context,
data structure, and scheduler routine tallies the work it performs here.

Operation classes mirror what mattered on the paper's hardware:

* ``fp_ops`` — floating-point operations. The i960 RD has **no FPU**; these
  are emulated by the VxWorks software floating-point library, which the
  paper measures at ≈20 µs of extra scheduling cost per decision.
* ``int_ops``/``shifts`` — native ALU work (the fixed-point build of the
  scheduler turns every division into a shift).
* ``mem_reads``/``mem_writes`` — data memory references, whose cost depends
  on whether the data cache is enabled (Tables 1 vs 2).
* ``mmio_reads``/``mmio_writes`` — accesses to the i960 RD's memory-mapped
  "hardware queue" registers (Table 3); these bypass the data cache but
  "do not generate any external bus cycles".
* ``branches`` — control flow, charged at ALU cost.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OpCounter"]


@dataclass
class OpCounter:
    """Mutable tally of abstract machine operations.

    The methods name every field rather than reflect over
    ``dataclasses.fields``: ``add``, ``copy`` and ``snapshot_delta`` run on
    every scheduling cycle.
    """

    int_ops: int = 0
    fp_ops: int = 0
    shifts: int = 0
    divides: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    mmio_reads: int = 0
    mmio_writes: int = 0
    branches: int = 0

    def add(self, other: "OpCounter") -> None:
        """Accumulate *other* into this counter in place."""
        self.int_ops += other.int_ops
        self.fp_ops += other.fp_ops
        self.shifts += other.shifts
        self.divides += other.divides
        self.mem_reads += other.mem_reads
        self.mem_writes += other.mem_writes
        self.mmio_reads += other.mmio_reads
        self.mmio_writes += other.mmio_writes
        self.branches += other.branches

    def copy(self) -> "OpCounter":
        return OpCounter(
            self.int_ops,
            self.fp_ops,
            self.shifts,
            self.divides,
            self.mem_reads,
            self.mem_writes,
            self.mmio_reads,
            self.mmio_writes,
            self.branches,
        )

    def total(self) -> int:
        """Total operation count across all classes."""
        return sum(self.as_tuple())

    def as_tuple(self) -> tuple[int, ...]:
        """The tally as a tuple in field declaration order (hashable cache key)."""
        return (
            self.int_ops,
            self.fp_ops,
            self.shifts,
            self.divides,
            self.mem_reads,
            self.mem_writes,
            self.mmio_reads,
            self.mmio_writes,
            self.branches,
        )

    def snapshot_delta(self, since: "OpCounter") -> "OpCounter":
        """Counter holding this minus *since* (for scoped measurements)."""
        return OpCounter(
            self.int_ops - since.int_ops,
            self.fp_ops - since.fp_ops,
            self.shifts - since.shifts,
            self.divides - since.divides,
            self.mem_reads - since.mem_reads,
            self.mem_writes - since.mem_writes,
            self.mmio_reads - since.mmio_reads,
            self.mmio_writes - since.mmio_writes,
            self.branches - since.branches,
        )
