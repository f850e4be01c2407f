"""Q16.16 fixed-point scalar behaviour."""

import pytest

from repro.fixedpoint import SCALE, FixedQ16


class TestConstruction:
    def test_from_fraction_power_of_two_exact(self):
        assert FixedQ16.from_fraction(1, 2).to_float() == 0.5
        assert FixedQ16.from_fraction(3, 4).to_float() == 0.75
        assert FixedQ16.from_fraction(1, 1).to_float() == 1.0

    def test_from_fraction_general_denominator(self):
        # 1/3 to Q16.16 precision
        assert FixedQ16.from_fraction(1, 3).to_float() == pytest.approx(1 / 3, abs=2 / SCALE)

    def test_from_fraction_bad_denominator(self):
        with pytest.raises(ValueError):
            FixedQ16.from_fraction(1, 0)

    def test_raw_must_be_int(self):
        with pytest.raises(TypeError):
            FixedQ16(1.5)

    def test_saturation(self):
        big = FixedQ16((1 << 20) * SCALE)  # overflows Q16.16
        assert big.raw == (1 << 31) - 1
        small = FixedQ16(-(1 << 20) * SCALE)
        assert small.raw == -(1 << 31)


class TestArithmetic:
    def test_precision_two_decimal_places(self):
        """Paper: scheduler needs 1-2 decimal places; Q16.16 must hold them."""
        for num, den in [(1, 10), (3, 100), (99, 100), (7, 10)]:
            fx = FixedQ16.from_fraction(num, den)
            assert fx.to_float() == pytest.approx(num / den, abs=0.001)
