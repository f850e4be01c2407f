"""Arithmetic contexts: identical decisions, different op profiles."""

import pytest

from repro.fixedpoint import (
    FixedPointContext,
    Fraction,
    OpCounter,
    SoftwareFloatContext,
)


@pytest.fixture(params=[SoftwareFloatContext, FixedPointContext])
def ctx(request):
    return request.param()


class TestDecisionEquivalence:
    """Paper: fixed point 'does not affect the quality of scheduling'."""

    CASES = [
        (Fraction(1, 2), Fraction(1, 3), 1),
        (Fraction(1, 3), Fraction(1, 2), -1),
        (Fraction(2, 4), Fraction(1, 2), 0),
        (Fraction(0, 5), Fraction(0, 9), 0),
        (Fraction(0, 5), Fraction(1, 100), -1),
        (Fraction(7, 8), Fraction(6, 7), 1),
    ]

    @pytest.mark.parametrize("a,b,expected", CASES)
    def test_compare(self, ctx, a, b, expected):
        assert ctx.compare(a, b) == expected

    def test_both_contexts_always_agree(self):
        sw, fx = SoftwareFloatContext(), FixedPointContext()
        for num_a in range(0, 6):
            for den_a in range(1, 6):
                for num_b in range(0, 6):
                    for den_b in range(1, 6):
                        a, b = Fraction(num_a, den_a), Fraction(num_b, den_b)
                        assert sw.compare(a, b) == fx.compare(a, b)
                        assert sw.is_zero(a) == fx.is_zero(a)

    def test_is_zero(self, ctx):
        assert ctx.is_zero(Fraction(0, 3))
        assert not ctx.is_zero(Fraction(1, 3))


class TestOpAccounting:
    def test_software_fp_tallies_fp_ops(self):
        ctx = SoftwareFloatContext()
        ctx.compare(Fraction(1, 2), Fraction(1, 3))
        assert ctx.ops.fp_ops > 0
        assert ctx.ops.int_ops == 0

    def test_fixed_point_tallies_no_fp_ops(self):
        ctx = FixedPointContext()
        ctx.compare(Fraction(1, 2), Fraction(1, 3))
        ctx.ratio(1, 3)
        assert ctx.ops.fp_ops == 0
        assert ctx.ops.int_ops > 0

    def test_fixed_point_ratio_uses_shift(self):
        ctx = FixedPointContext()
        ctx.ratio(1, 2)
        assert ctx.ops.shifts == 1

    def test_shared_ledger(self):
        ledger = OpCounter()
        ctx = FixedPointContext(ops=ledger)
        ctx.compare(Fraction(1, 2), Fraction(1, 3))
        assert ledger.int_ops > 0

    def test_ratio_values_close(self):
        sw, fx = SoftwareFloatContext(), FixedPointContext()
        for num, den in [(1, 2), (2, 3), (5, 8), (99, 100)]:
            assert fx.ratio(num, den) == pytest.approx(sw.ratio(num, den), abs=1e-3)

    def test_ratio_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            FixedPointContext().ratio(1, 0)


class TestOpCounter:
    def test_copy_is_independent(self):
        a = OpCounter(int_ops=1)
        b = a.copy()
        b.int_ops += 1
        assert a.int_ops == 1

    def test_snapshot_delta(self):
        a = OpCounter(int_ops=10, shifts=4)
        before = a.copy()
        a.int_ops += 5
        delta = a.snapshot_delta(before)
        assert delta.int_ops == 5
        assert delta.shifts == 0

    def test_total_and_as_dict(self):
        a = OpCounter(int_ops=1, fp_ops=2, mmio_reads=3)
        assert a.total() == 6
