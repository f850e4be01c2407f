"""Integer fraction type used by the fixed-point scheduler build.

The paper (§4.2): *"arguments are simply stored as fractions with numerator
and denominator with divisions implemented as shifts"* and *"the scheduler
operations require fractional values to one or two decimal places
(implemented easily with a structure representing a fraction)"*.

``Fraction`` here is that structure: two machine integers. The arithmetic
contexts (:mod:`repro.fixedpoint.context`) read ``num`` and ``den``; the
fixed-point one compares two fractions by cross-multiplication, so no
division is ever needed for the scheduler's ordering decisions (which is
where DWCS spends its arithmetic — comparing window-constraints x'/y').
"""

from __future__ import annotations

__all__ = ["Fraction"]


class Fraction:
    """An exact non-negative rational with integer numerator/denominator.

    Deliberately *not* auto-normalizing: DWCS window constraints keep their
    raw (x', y') representation because the pair itself carries meaning
    (numerator = losses still tolerable, denominator = window remaining).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError("Fraction components must be int")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if num < 0:
            raise ValueError(f"numerator must be non-negative, got {num}")
        self.num = num
        self.den = den

    def __repr__(self) -> str:
        return f"Fraction({self.num}/{self.den})"
