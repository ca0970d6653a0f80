"""Exact arithmetic helpers: integer roots and rational enclosures.

Everything downstream stores square (or fourth-power) quantities and compares
them through integer power tests, so the primitives here never round.  When a
true enclosure of an irrational value is unavoidable (k-th roots, rational
powers) it is returned as a closed rational ``Interval`` whose width the
caller controls through a precision parameter.

Conventions:

* ``iroot(n, k)`` is floor(n**(1/k)) for integers n >= 0, k >= 1.
* ``floor(x ** (1/k)) == iroot(floor(x), k)`` for real x >= 0 because the
  k-th powers of integers are integers; ``root_enclosure`` and the even
  roots in ``iroot`` rely on it.
* An ``Interval`` is a certified enclosure: Fraction endpoints lo <= hi
  known to bracket the true value.  It carries no arithmetic; callers read
  its ends, its width, or the enclosure of the reciprocal.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def iroot(n: int, k: int) -> int:
    """Integer k-th root: the largest r >= 0 with r**k <= n.

    Even roots start from ``math.isqrt``: floor(floor(sqrt n)^(2/k)) is
    floor(n^(1/k)).  Other roots use Newton iteration from above, which
    converges monotonically once past the root, so the loop terminates
    when the iterate stops decreasing.
    """
    if n < 0:
        raise ValueError("iroot of negative")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    if k % 2 == 0:
        return iroot(math.isqrt(n), k // 2)
    # Start strictly above the root: 2**ceil(bits/k) >= n**(1/k).
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed rational interval [lo, hi] certifying an irrational value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: Rational) -> "Interval":
        f = Fraction(x)
        return Interval(f, f)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def reciprocal(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"


def root_enclosure(x: Rational, k: int, bits: int = 64) -> Interval:
    """Enclose x ** (1/k) for rational x >= 0 in a width <= 2**-bits interval.

    If x is the exact k-th power of a rational the interval is a point.
    """
    f = Fraction(x)
    if f < 0:
        raise ValueError("negative radicand")
    if f == 0:
        return Interval.point(0)
    # Exact-root shortcut: both numerator and denominator perfect k-th powers.
    rn, rd = iroot(f.numerator, k), iroot(f.denominator, k)
    if rn ** k == f.numerator and rd ** k == f.denominator:
        return Interval.point(Fraction(rn, rd))
    # m = floor((x * 2**(bits k)) ** (1/k)) brackets x**(1/k) * 2**bits within 1.
    m = iroot((f.numerator << bits * k) // f.denominator, k)
    return Interval(Fraction(m, 1 << bits), Fraction(m + 1, 1 << bits))


def sqrt_enclosure(x: Rational, bits: int = 64) -> Interval:
    return root_enclosure(x, 2, bits)


def pow_enclosure(x: Rational, e_num: int, e_den: int, bits: int = 64) -> Interval:
    """Enclose x ** (e_num / e_den) for rational x > 0 (x >= 0 if exponent > 0).

    Negative exponents go through the reciprocal of a positive-power
    enclosure, so x must then be strictly positive.
    """
    if e_den < 1:
        raise ValueError("exponent denominator must be >= 1")
    f = Fraction(x)
    if e_num == 0:
        return Interval.point(1)
    if e_num < 0:
        return pow_enclosure(f, -e_num, e_den, bits).reciprocal()
    if f < 0:
        raise ValueError("negative base")
    return root_enclosure(f ** e_num, e_den, bits)


# compiled on first use (re caches it), which keeps it out of import time
_DECIMAL = r"""([-+]?)(?=\d|\.\d)
    (\d*|\d+(?:_\d+)*)                 # integer digits
    (?:\.(\d*|\d+(?:_\d+)*))?          # fractional digits
    (?:e([-+]?\d+(?:_\d+)*))?          # exponent
"""


def parse_fraction(text: str) -> Fraction:
    """Parse 'a/b' or 'a' (also decimal literals like '0.25' or '1e-3') to a Fraction.

    A literal whose numerator or denominator in lowest terms would have
    more than ``sys.get_int_max_str_digits()`` digits (0: no limit) is
    rejected with ValueError, and an exponent far past that limit is
    rejected before any power of ten is built.
    """
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    match = re.fullmatch(_DECIMAL, text, re.VERBOSE | re.IGNORECASE)
    if match is None:
        raise ValueError(f"invalid fraction literal {text!r}")
    sign, whole, frac, exp = match.groups()
    frac = (frac or "").replace("_", "")
    mantissa = int(whole + frac or "0")
    if not mantissa:
        return Fraction(0)
    shift = int(exp or "0") - len(frac)
    limit = sys.get_int_max_str_digits()
    # the mantissa has at most len(whole + frac) digits, so past these
    # shifts the numerator or the reduced denominator exceeds the limit
    if limit and (shift > limit or -shift > limit + len(whole + frac)):
        raise ValueError(f"number needs more than {limit} digits: {text[:40]!r}")
    if shift >= 0:
        value = Fraction(mantissa * 10**shift)
    else:
        value = Fraction(mantissa, 10**-shift)
    if limit and max(value.numerator, value.denominator) >= 10**limit:
        raise ValueError(f"number needs more than {limit} digits: {text[:40]!r}")
    return -value if sign == "-" else value


def format_fraction(x: Rational) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
