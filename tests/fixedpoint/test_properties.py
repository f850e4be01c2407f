"""Property-based tests for the fixed-point substrate."""

from hypothesis import given
from hypothesis import strategies as st

from repro.fixedpoint import FixedPointContext, Fraction, SoftwareFloatContext

fractions = st.builds(
    Fraction,
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=10_000),
)


@given(fractions, fractions)
def test_fraction_ordering_matches_exact_rationals(a, b):
    from fractions import Fraction as PyFraction

    pa, pb = PyFraction(a.num, a.den), PyFraction(b.num, b.den)
    assert FixedPointContext().compare(a, b) == (pa > pb) - (pa < pb)


@given(fractions, fractions)
def test_contexts_always_agree_on_comparison(a, b):
    assert SoftwareFloatContext().compare(a, b) == FixedPointContext().compare(a, b)
