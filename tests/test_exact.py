"""Exact-arithmetic primitives against brute force and mpmath oracles."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from trigauge.exact import (
    Interval,
    format_fraction,
    iroot,
    parse_fraction,
    pow_enclosure,
    root_enclosure,
    sqrt_enclosure,
)

mpmath.mp.dps = 60


def brute_iroot(n: int, k: int) -> int:
    r = 0
    while (r + 1) ** k <= n:
        r += 1
    return r


def test_iroot_small_exhaustive():
    for n in range(0, 300):
        for k in (1, 2, 3, 4, 6, 7):
            assert iroot(n, k) == brute_iroot(n, k), (n, k)


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=12))
def test_iroot_defining_property(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_iroot_rejects_negative():
    with pytest.raises(ValueError):
        iroot(-1, 2)


@given(
    st.fractions(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=8),
)
def test_rational_floor_root_matches_mpmath(x, k):
    # floor(x^(1/k)) = iroot(floor(x), k), the identity root_enclosure uses
    got = iroot(x.numerator // x.denominator, k)
    # mpmath at 60 digits is far beyond the integer boundary resolution here
    expected = int(mpmath.floor(mpmath.root(mpmath.mpf(x.numerator) / x.denominator, k)))
    assert got == expected


def test_interval_rejects_inverted():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_interval_reciprocal_straddle():
    with pytest.raises(ZeroDivisionError):
        Interval(Fraction(-1), Fraction(1)).reciprocal()


@given(st.fractions(min_value=0, max_value=10**8), st.integers(min_value=1, max_value=6))
def test_root_enclosure_contains_true_root(x, k):
    iv = root_enclosure(x, k, bits=48)
    true = mpmath.root(mpmath.mpf(x.numerator) / x.denominator, k)
    assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= true
    assert true <= mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
    assert iv.width <= Fraction(1, 2**48)


def test_root_enclosure_exact_point_for_perfect_powers():
    assert root_enclosure(Fraction(49, 16), 2) == Interval.point(Fraction(7, 4))
    assert root_enclosure(Fraction(27, 8), 3) == Interval.point(Fraction(3, 2))
    assert root_enclosure(0, 5) == Interval.point(0)


def test_pow_enclosure_negative_exponent():
    # 2 ** (-3/2) = 1 / (2 * sqrt 2) ~ 0.353553
    iv = pow_enclosure(2, -3, 2, bits=64)
    true = mpmath.power(2, mpmath.mpf(-3) / 2)
    assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= true
    assert true <= mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
    assert iv.width < Fraction(1, 2**60)


def test_pow_enclosure_zero_exponent_is_one():
    assert pow_enclosure(Fraction(7, 3), 0, 5) == Interval.point(1)


def test_fraction_round_trip():
    assert parse_fraction("3/7") == Fraction(3, 7)
    assert parse_fraction(" -2 ") == Fraction(-2)
    assert parse_fraction("0.25") == Fraction(1, 4)
    assert format_fraction(Fraction(10, 4)) == "5/2"
    assert format_fraction(Fraction(8, 2)) == "4"
    assert parse_fraction(format_fraction(Fraction(-9, 11))) == Fraction(-9, 11)
    for bad in ("1/0", "0/0", "1/x"):
        with pytest.raises(ValueError):
            parse_fraction(bad)
