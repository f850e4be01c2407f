"""Fixed-code-path operation charges for the embedded scheduler.

The reproduction executes the real DWCS logic in Python and tallies the
arithmetic it actually performs through the op-counted containers and
contexts. What Python cannot surface is the *straight-line machine code*
around that logic — loop preludes, register shuffling, driver entry/exit,
device programming. :class:`DWCSCostModel` supplies those charges as
documented constants.

Calibration: the constants were fitted against the paper's **setup-side**
numbers only (the i960's 66 MHz clock, the measured dispatch-only path of
≈30 µs/frame, the ≈20 µs software-FP penalty, the ≈14 µs data-cache
saving), then Tables 1–3 are *reproduced* by running the scheduler, not by
echoing table cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fixedpoint import OpCounter

__all__ = ["DWCSCostModel"]


@dataclass(frozen=True)
class DWCSCostModel:
    """Per-phase straight-line operation charges."""

    # -- scheduling decision --------------------------------------------------
    #: loop prelude, state load/store, priority encoding per decision
    decision_base_int_ops: int = 2570
    decision_base_branches: int = 400
    #: per stream examined during selection/miss scanning
    per_stream_int_ops: int = 25
    per_stream_branches: int = 6
    per_stream_mem_reads: int = 1
    #: per window-constraint adjustment applied
    adjust_int_ops: int = 30
    adjust_mem_reads: int = 2
    adjust_mem_writes: int = 2

    # -- dispatch (device programming of one frame) ------------------------------
    dispatch_int_ops: int = 1630
    dispatch_branches: int = 80
    dispatch_mem_reads: int = 7
    dispatch_mem_writes: int = 4
    #: arithmetic-context ``ratio`` evaluations in the dispatch path
    #: (per-stream rate bookkeeping) — this is what makes even the
    #: scheduler-bypassed path slower under software FP (Table 1's 34.6 vs
    #: 30.35 µs w/o-scheduler rows)
    dispatch_ratio_calls: int = 2

    # -- helpers ------------------------------------------------------------------
    def charge_decision_base(self, ops: OpCounter) -> None:
        ops.int_ops += self.decision_base_int_ops
        ops.branches += self.decision_base_branches

    def charge_streams_examined(self, ops: OpCounter, n: int) -> None:
        """Charge the examination of *n* streams' descriptors.

        The per-stream charge is a constant delta, so a cohort of *n*
        examinations is one multiply-accumulate per category.
        """
        if n <= 0:
            return
        ops.int_ops += self.per_stream_int_ops * n
        ops.branches += self.per_stream_branches * n
        ops.mem_reads += self.per_stream_mem_reads * n

    def charge_adjustment(self, ops: OpCounter) -> None:
        ops.int_ops += self.adjust_int_ops
        ops.mem_reads += self.adjust_mem_reads
        ops.mem_writes += self.adjust_mem_writes

    def charge_adjustments(self, ops: OpCounter, n: int) -> None:
        """Batched form of :meth:`charge_adjustment` for *n* window updates."""
        if n <= 0:
            return
        ops.int_ops += self.adjust_int_ops * n
        ops.mem_reads += self.adjust_mem_reads * n
        ops.mem_writes += self.adjust_mem_writes * n

    def charge_dispatch(self, ops: OpCounter) -> None:
        ops.int_ops += self.dispatch_int_ops
        ops.branches += self.dispatch_branches
        ops.mem_reads += self.dispatch_mem_reads
        ops.mem_writes += self.dispatch_mem_writes
