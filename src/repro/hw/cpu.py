"""CPU cost model: abstract operation counts → microseconds.

The reproduction executes the *real* DWCS algorithm and tallies abstract
operations (:class:`~repro.fixedpoint.OpCounter`); a :class:`CPU` converts a
tally into simulated time using per-class cycle costs from its
:class:`CPUSpec`. Three specs matter to the paper:

* ``I960RD_66`` — the I2O co-processor: 66 MHz, **no FPU** (floating point
  emulated by the VxWorks software-FP library at high cycle cost), small
  data cache, MMIO register file reachable without external bus cycles.
* ``PENTIUM_PRO_200`` — the quad host CPU (200 MHz, FPU, deep caches but
  expensive context switches / cache pollution — charged by the OS model).
* ``ULTRASPARC_300`` — the 300 MHz CPU on which the prior host-based DWCS
  papers measured ≈50 µs scheduling overhead (used for the headline
  comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fixedpoint import OpCounter

from .cache import DataCache

__all__ = ["CPUSpec", "CPU", "I960RD_66", "PENTIUM_PRO_200", "ULTRASPARC_300"]


@dataclass(frozen=True)
class CPUSpec:
    """Static timing parameters of a processor.

    All ``*_cycles`` fields are costs per abstract operation of that class.
    ``fp_op_cycles`` applies when a hardware FPU exists; on FPU-less parts
    ``fp_emulation_cycles`` applies instead (software FP library).
    """

    name: str
    clock_mhz: float
    has_fpu: bool
    int_op_cycles: float = 1.0
    shift_cycles: float = 1.0
    divide_cycles: float = 35.0
    branch_cycles: float = 2.0
    fp_op_cycles: float = 3.0
    fp_emulation_cycles: float = 50.0
    #: data memory reference straight to (local) memory — no cache
    mem_uncached_cycles: float = 20.0
    #: data memory reference hitting the data cache
    mem_cached_cycles: float = 2.0
    #: access to memory-mapped register space ("no external bus cycles")
    mmio_cycles: float = 4.0
    #: direct cost of a context switch, µs (host OS model charges this)
    context_switch_us: float = 10.0
    #: extra cost after a switch from cache/TLB pollution, µs
    cache_pollution_us: float = 0.0

    @property
    def cycle_us(self) -> float:
        """Duration of one clock cycle in microseconds."""
        return 1.0 / self.clock_mhz


class CPU:
    """A processor instance: spec + data-cache state + cycle accounting."""

    #: memo entries kept per CPU; DWCS inner loops cycle through a small
    #: set of distinct op vectors, so this is never approached in practice
    _MEMO_LIMIT = 65536

    def __init__(
        self,
        spec: CPUSpec,
        cache: Optional[DataCache] = None,
        name: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.cache = cache if cache is not None else DataCache(enabled=False)
        self.name = name or spec.name
        #: trace track of the spans this CPU runs, built once
        self.track = f"cpu:{self.name}"
        #: total cycles charged through this CPU (for reporting)
        self.cycles_charged = 0.0
        # (effective hit ratio, op tuple) -> cycles. The hit ratio folds in
        # every piece of mutable cache state (enabled flag, working set), so
        # a memo hit returns the exact float the full computation would —
        # the golden digests pin this bit-for-bit.
        self._cycles_memo: dict[tuple[float, tuple[int, ...]], float] = {}
        #: the spec is frozen, so this is the float spec.cycle_us returns
        self._cycle_us = spec.cycle_us

    # -- cost conversion -------------------------------------------------------
    def cycles_for(self, ops: OpCounter, working_set_bytes: int | None = None) -> float:
        """Cycle cost of an operation tally under current cache state.

        The DWCS inner loop converts the same handful of (op-vector,
        cache-state) pairs thousands of times per run; repeats are served
        from a per-CPU memo table.
        """
        hit = self.cache.effective_hit_ratio(working_set_bytes)
        key = (hit, ops.as_tuple())
        memo = self._cycles_memo
        cycles = memo.get(key)
        if cycles is None:
            s = self.spec
            fp_cost = s.fp_op_cycles if s.has_fpu else s.fp_emulation_cycles
            mem_cost = hit * s.mem_cached_cycles + (1.0 - hit) * s.mem_uncached_cycles
            cycles = (
                ops.int_ops * s.int_op_cycles
                + ops.shifts * s.shift_cycles
                + ops.divides * s.divide_cycles
                + ops.branches * s.branch_cycles
                + ops.fp_ops * fp_cost
                + (ops.mem_reads + ops.mem_writes) * mem_cost
                + (ops.mmio_reads + ops.mmio_writes) * s.mmio_cycles
            )
            if len(memo) < self._MEMO_LIMIT:
                memo[key] = cycles
        return cycles

    def time_for(self, ops: OpCounter, working_set_bytes: int | None = None) -> float:
        """Microseconds to execute *ops*; also accumulates cycle accounting."""
        # the memo probe of cycles_for, inlined: time_for runs per decision
        cycles = self._cycles_memo.get(
            (self.cache.effective_hit_ratio(working_set_bytes), ops.as_tuple())
        )
        if cycles is None:
            cycles = self.cycles_for(ops, working_set_bytes)
        self.cycles_charged += cycles
        return cycles * self._cycle_us

    def time_us(self, cycles: float) -> float:
        """Microseconds for a raw cycle count (device driver fixed costs)."""
        self.cycles_charged += cycles
        return cycles * self._cycle_us

    def __repr__(self) -> str:
        return f"<CPU {self.name} {self.spec.clock_mhz:g}MHz cache={self.cache!r}>"


# -- canonical processor specs --------------------------------------------------

#: Intel i960 RD on the I2O card: 66 MHz I/O co-processor without an FPU.
#: ``fp_emulation_cycles`` is calibrated so the software-FP scheduler build
#: costs ≈20 µs more per decision than the fixed-point build (paper §4.2).
I960RD_66 = CPUSpec(
    name="i960RD",
    clock_mhz=66.0,
    has_fpu=False,
    fp_emulation_cycles=55.0,
    mem_uncached_cycles=20.0,
    mem_cached_cycles=2.0,
    mmio_cycles=4.0,
    context_switch_us=4.0,  # VxWorks task switch is light
    cache_pollution_us=0.0,
)

#: Host CPU of the quad Pentium Pro server (200 MHz, FPU, deep cache
#: hierarchy — hence the large post-switch pollution charge the paper blames
#: for host-scheduler jitter).
PENTIUM_PRO_200 = CPUSpec(
    name="PentiumPro",
    clock_mhz=200.0,
    has_fpu=True,
    fp_op_cycles=3.0,
    mem_uncached_cycles=40.0,  # miss to EDO DRAM
    mem_cached_cycles=1.0,
    context_switch_us=10.0,
    cache_pollution_us=25.0,
)

#: 300 MHz UltraSPARC — the platform of the prior host-based DWCS result
#: (≈50 µs scheduling overhead with quiescent load).
ULTRASPARC_300 = CPUSpec(
    name="UltraSPARC",
    clock_mhz=300.0,
    has_fpu=True,
    fp_op_cycles=3.0,
    mem_uncached_cycles=35.0,
    mem_cached_cycles=1.0,
    context_switch_us=8.0,
    cache_pollution_us=20.0,
)
