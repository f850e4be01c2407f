"""Fraction construction and validation."""

import pytest

from repro.fixedpoint import Fraction


class TestConstruction:
    def test_basic(self):
        f = Fraction(3, 4)
        assert (f.num, f.den) == (3, 4)

    def test_zero_numerator_allowed(self):
        f = Fraction(0, 5)
        assert (f.num, f.den) == (0, 5)

    def test_negative_numerator_rejected(self):
        with pytest.raises(ValueError):
            Fraction(-1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            Fraction(1, 0)

    def test_negative_denominator_rejected(self):
        with pytest.raises(ValueError):
            Fraction(1, -2)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            Fraction(1.5, 2)
