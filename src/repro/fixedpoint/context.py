"""Arithmetic contexts: software floating point vs. fixed point.

The DWCS scheduler performs all constraint arithmetic through one of these
contexts. Both produce *identical scheduling decisions* (the paper: "Using
the fixed point version does not affect the quality of scheduling"); they
differ only in which abstract operations they tally, and therefore in how
many microseconds the CPU model charges:

* :class:`SoftwareFloatContext` — every arithmetic step is a (software
  emulated) floating-point op. On the i960 RD (no FPU) the VxWorks software
  FP library makes each such op dozens of times more expensive than an ALU
  op; the paper measures ≈20 µs extra per scheduling decision.
* :class:`FixedPointContext` — integer cross-multiplication for fraction
  comparison, shifts for division: pure ALU work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .fixed import FixedQ16
from .fraction import Fraction
from .opcount import OpCounter

__all__ = ["ArithmeticContext", "SoftwareFloatContext", "FixedPointContext"]


class ArithmeticContext(ABC):
    """Op-counted arithmetic over window-constraint fractions."""

    #: short label used in experiment output tables
    label: str = "abstract"

    def __init__(self, ops: OpCounter | None = None) -> None:
        #: the ledger that every operation tallies into
        self.ops = ops if ops is not None else OpCounter()

    # -- interface ---------------------------------------------------------
    @abstractmethod
    def compare(self, a: Fraction, b: Fraction) -> int:
        """-1/0/+1 ordering of two constraint fractions."""

    @abstractmethod
    def is_zero(self, a: Fraction) -> bool:
        """True when the fraction's value is zero."""

    @abstractmethod
    def ratio(self, num: int, den: int) -> float:
        """Evaluate num/den (bandwidth shares, utilization fractions)."""


class SoftwareFloatContext(ArithmeticContext):
    """Arithmetic via (emulated) floating point.

    Mirrors the convenience-first build the paper describes: "The VxWorks
    software FP library simply eases the development process by allowing
    float datatypes in the code".
    """

    label = "software-fp"

    def compare(self, a: Fraction, b: Fraction) -> int:
        # Two int->float conversions, two fp divides, one fp compare.
        self.ops.fp_ops += 5
        self.ops.mem_reads += 4  # load both numerators and denominators
        self.ops.branches += 1
        av, bv = a.num / a.den, b.num / b.den
        return (av > bv) - (av < bv)

    def is_zero(self, a: Fraction) -> bool:
        self.ops.fp_ops += 2  # convert + compare against 0.0
        self.ops.mem_reads += 1
        self.ops.branches += 1
        return a.num / a.den == 0.0

    def ratio(self, num: int, den: int) -> float:
        self.ops.fp_ops += 3  # two converts + divide
        return num / den


class FixedPointContext(ArithmeticContext):
    """Arithmetic via integers, cross-multiplication, and shifts."""

    label = "fixed-point"

    def compare(self, a: Fraction, b: Fraction) -> int:
        # Two integer multiplies + compare (no division at all).
        self.ops.int_ops += 3
        self.ops.mem_reads += 4
        self.ops.branches += 1
        lhs, rhs = a.num * b.den, b.num * a.den
        return (lhs > rhs) - (lhs < rhs)

    def is_zero(self, a: Fraction) -> bool:
        self.ops.int_ops += 1
        self.ops.mem_reads += 1
        self.ops.branches += 1
        return a.num == 0

    def ratio(self, num: int, den: int) -> float:
        # Shift-based division against the nearest power-of-two denominator,
        # exactly as the paper's fixed-point build does; the result keeps
        # one-two decimal places of precision, enough for the scheduler.
        self.ops.int_ops += 1
        self.ops.shifts += 1
        if den <= 0:
            raise ZeroDivisionError("ratio denominator must be positive")
        return FixedQ16.from_fraction(num, den).to_float()
