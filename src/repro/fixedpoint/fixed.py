"""Q16.16 fixed-point scalar with shift-based division.

Models the arithmetic available to the fixed-point scheduler build on the
i960 RD: 32-bit integers, shifts for power-of-two division, and integer
multiply. One or two decimal places of precision (what the paper says the
scheduler needs) fit comfortably in 16 fractional bits (resolution ≈1.5e-5).
"""

from __future__ import annotations

__all__ = ["FixedQ16", "FRACTION_BITS", "SCALE"]

FRACTION_BITS = 16
SCALE = 1 << FRACTION_BITS

# 32-bit two's-complement saturation bounds for the raw representation.
_RAW_MAX = (1 << 31) - 1
_RAW_MIN = -(1 << 31)


class FixedQ16:
    """Signed Q16.16 fixed-point number (saturating, like embedded code)."""

    __slots__ = ("raw",)

    def __init__(self, raw: int) -> None:
        """Build from a raw scaled integer; :meth:`from_fraction` scales one."""
        if not isinstance(raw, int):
            raise TypeError("raw representation must be int")
        self.raw = self._saturate(raw)

    @staticmethod
    def _saturate(raw: int) -> int:
        return max(_RAW_MIN, min(_RAW_MAX, raw))

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_fraction(cls, num: int, den: int) -> "FixedQ16":
        """num/den as fixed point; exact shift when den is a power of two."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        scaled = num << FRACTION_BITS if num >= 0 else -((-num) << FRACTION_BITS)
        if den & (den - 1) == 0:
            return cls(scaled >> den.bit_length() - 1)
        return cls(scaled // den)

    # -- conversion ------------------------------------------------------------
    def to_float(self) -> float:
        return self.raw / SCALE

    def __repr__(self) -> str:
        return f"FixedQ16({self.to_float():.5f})"
