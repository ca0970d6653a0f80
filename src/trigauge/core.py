"""Triangular-array vectors and the exact Lorentz-type comparisons on them.

The index set is the lower triangle D = {(i, j) : i >= j >= 1}: row i has
cells (i, 1) .. (i, i).  A ``TriVector`` is a finitely supported rational
vector on D.  Two scale measurements drive everything built on top:

* ``row_norm_sq(x)``: the square of the row-average seminorm, the sum over
  rows of (absolute row sum / row index)^2.  Stored squared so it stays
  rational.
* the weak Lorentz comparison ``lorentz_le_sq(a_sq, bound, p, power)``:
  with a* the decreasing rearrangement of |a|, given the squares a_sq and
  bound = c^power, decides sup_n a*_n n^(1/p) <= c.  For rational data this
  reduces to the integer power test
  (a*_n^2)^(num power/2) * n^(den power) <= bound^num for every n, where
  p = num/den.  Certificates carry squares (seminorms), and the smallness
  bound c = (16 eps)^(1/4) is rational only as c^4, hence power 2 or 4.

``lorentz_le_sq`` and the enclosure ``lorentz_value_sq`` put the squares
over one common denominator D and run one private kernel on the integer
numerators, sorted as ints; callers that keep their seminorms over a
common denominator (``gauge_upper``) call the kernel directly.

The comparison constant ``lorentz_l2_constant`` encloses
C(p) = (sum_n n^(-2/p))^(1/2), the factor relating the row-average
seminorm to the weak Lorentz scale of a disjoint sum.  The tail of the
series is sandwiched between the integrals from terms+1 and from terms,
so the enclosure width falls like terms^(1 - 2/p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .exact import (
    Interval,
    Rational,
    format_fraction,
    iroot,
    parse_fraction,
    pow_enclosure,
    root_enclosure,
    sqrt_enclosure,
)


@dataclass(frozen=True, slots=True)
class LorentzParam:
    """Exponent p = num/den with 1 < p < 2, in lowest terms."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 1 or not (self.den < self.num < 2 * self.den):
            raise ValueError(f"need 1 < num/den < 2, got {self.num}/{self.den}")
        if gcd(self.num, self.den) != 1:
            raise ValueError("num/den not in lowest terms")

    @classmethod
    def from_fraction(cls, p: Rational) -> "LorentzParam":
        f = Fraction(p)
        return cls(f.numerator, f.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


DEFAULT_P = LorentzParam(3, 2)


class TriVector:
    """Finitely supported rational vector on the triangle {(i,j): i >= j >= 1}.

    Immutable by convention: all operations return new instances.  Zero
    entries are dropped on construction, so equal vectors have equal
    supports and hash consistently.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple[int, int], Rational] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (isinstance(i, int) and isinstance(j, int) and i >= j >= 1):
                    raise ValueError(f"index ({i}, {j}) outside the triangle")
                f = v if isinstance(v, Fraction) else Fraction(v)
                if f:
                    clean[(i, j)] = f
        object.__setattr__(self, "_entries", clean)

    @classmethod
    def _adopt(cls, entries: dict[tuple[int, int], Fraction]) -> "TriVector":
        """Wrap entries already known valid: triangle indices, nonzero Fractions."""
        out = object.__new__(cls)
        object.__setattr__(out, "_entries", entries)
        return out

    # -- access ---------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self._entries.get((i, j), Fraction(0))

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        yield from sorted(self._entries.items())

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._entries))

    def active_rows(self) -> tuple[int, ...]:
        return tuple(sorted({i for i, _ in self._entries}))

    def row_entries(self, i: int) -> dict[int, Fraction]:
        return {j: v for (r, j), v in self._entries.items() if r == i}

    @property
    def max_row(self) -> int:
        return max((i for i, _ in self._entries), default=0)

    def is_zero(self) -> bool:
        return not self._entries

    def is_nonnegative(self) -> bool:
        return all(v > 0 for v in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "TriVector") -> "TriVector":
        if not isinstance(other, TriVector):
            return NotImplemented
        merged = dict(self._entries)
        for k, v in other._entries.items():
            if k in merged:
                v += merged[k]
                if not v:
                    del merged[k]
                    continue
            merged[k] = v
        return TriVector._adopt(merged)

    def __sub__(self, other: "TriVector") -> "TriVector":
        return self + (-other)

    def __neg__(self) -> "TriVector":
        return TriVector._adopt({k: -v for k, v in self._entries.items()})

    def __abs__(self) -> "TriVector":
        return TriVector._adopt({k: abs(v) for k, v in self._entries.items()})

    def scale(self, c: Rational) -> "TriVector":
        c = Fraction(c)
        if not c:
            return TriVector()
        return TriVector._adopt({k: v * c for k, v in self._entries.items()})

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def restrict_rows(self, rows: Iterable[int]) -> "TriVector":
        keep = set(rows)
        return TriVector._adopt({k: v for k, v in self._entries.items() if k[0] in keep})

    # -- measurements ------------------------------------------------------

    def sup_norm(self) -> Fraction:
        return max((abs(v) for v in self._entries.values()), default=Fraction(0))

    def row_sum(self, i: int) -> Fraction:
        total = Fraction(0)
        for (r, _), v in self._entries.items():
            if r == i:
                total += v
        return total

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"({i},{j}): {format_fraction(v)}" for (i, j), v in self.items())
        return f"TriVector({{{inner}}})"

    # -- text format --------------------------------------------------------

    def to_text(self) -> str:
        lines = ["trivector 1"]
        for (i, j), v in self.items():
            lines.append(f"{i} {j} {format_fraction(v)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TriVector":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines or lines[0] != "trivector 1":
            raise ValueError("missing 'trivector 1' header")
        entries: dict[tuple[int, int], Fraction] = {}
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"bad entry line: {ln!r}")
            i, j = int(parts[0]), int(parts[1])
            if (i, j) in entries:
                raise ValueError(f"duplicate index ({i}, {j})")
            entries[(i, j)] = parse_fraction(parts[2])
        return cls(entries)


def dot(x: TriVector, y: TriVector) -> Fraction:
    small, big = (x, y) if len(x) <= len(y) else (y, x)
    return sum((v * big.entry(i, j) for (i, j), v in small.items()), Fraction(0))


def is_row_disjoint(*xs: TriVector) -> bool:
    """Whether the vectors occupy pairwise disjoint sets of rows."""
    seen: set[int] = set()
    for x in xs:
        rows = set(x.active_rows())
        if rows & seen:
            return False
        seen |= rows
    return True


def _weighted_sum(parts: Iterable[tuple[TriVector, Rational]]) -> TriVector:
    """sum c v over the (v, c) in ``parts``, formed cell by cell in one
    dict; cells that cancel are dropped, so the result equals the fold
    of ``+`` and ``scale``.  A product by c = 1 costs as much as a sum
    of Fractions, so those parts are added unscaled."""
    total: dict[tuple[int, int], Fraction] = {}
    for v, c in parts:
        if not c:
            continue
        unit = c == 1
        for cell, value in v._entries.items():  # noqa: SLF001 - module-internal fast path
            if not unit:
                value *= c
            if cell in total:
                value += total[cell]
                if not value:
                    del total[cell]
                    continue
            total[cell] = value
    return TriVector._adopt(total)


def _covers(parts: Iterable[tuple[TriVector, Rational]], x: TriVector) -> bool:
    """Whether sum c v over the (v, c) in ``parts`` is at least |x| on
    every cell, both sides read as 0 off their supports; the sum is
    ``_weighted_sum``'s, with no other intermediate vector."""
    total = _weighted_sum(parts)._entries  # noqa: SLF001 - a fresh dict, consumed here
    for cell, value in x._entries.items():  # noqa: SLF001
        if total.pop(cell, 0) < abs(value):
            return False
    return all(value >= 0 for value in total.values())


def row_norm_sq(x: TriVector) -> Fraction:
    """Square of the row-average seminorm: sum_i (|row i| sum / i)^2,
    summed in integers over one denominator (``_row_norm_nums``)."""
    nums, den = _row_norm_nums(x)
    return Fraction(sum(nums.values()), den)


def _row_norm_nums(x: TriVector) -> tuple[dict[int, int], int]:
    """Each nonzero row's ``row_norm_sq`` term (|row i| sum / i)^2, in one
    pass over x, as integer numerators over the least common denominator.

    The row means |row i| sum / i are put over one denominator R and the
    gcd of R and their numerators is divided out, so R^2 is the lcm of
    the terms' reduced denominators.
    """
    entries = x._entries  # noqa: SLF001 - module-internal fast path
    com = lcm(*(v.denominator for v in entries.values()))
    sums: dict[int, int] = {}
    for (i, _), v in entries.items():
        sums[i] = sums.get(i, 0) + abs(v.numerator) * (com // v.denominator)
    rows = lcm(*sums)
    means = {i: s * (rows // i) for i, s in sums.items()}  # over com * rows
    g = gcd(com * rows, *means.values())
    return {i: (m // g) ** 2 for i, m in means.items()}, (com * rows // g) ** 2


def l2_norm_sq(values: Iterable[Rational]) -> Fraction:
    """Sum of squares, in integers over the lcm of the denominators."""
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in vals))
    return Fraction(sum((v.numerator * (den // v.denominator)) ** 2 for v in vals), den * den)


# -- weak Lorentz comparisons ----------------------------------------------


def _over_common_den(values: Iterable[Rational]) -> tuple[list[int], int]:
    """The values as decreasing integer numerators over the lcm D of
    their denominators, and D."""
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in vals))
    return sorted((v.numerator * (den // v.denominator) for v in vals), reverse=True), den


def _lorentz_le(
    nums: Sequence[int], den: int, bound: Fraction, p: LorentzParam, power: int = 2
) -> bool:
    """``lorentz_le_sq`` on the squares N/D, N in ``nums`` (decreasing,
    nonnegative) and D = ``den``: with k = num power/2, e = den power and
    bound = B/C, the test is N^k n^e C^num <= B^num D^k for every N > 0."""
    k = power // 2 * p.num
    e = power * p.den
    lhs_den = bound.denominator**p.num
    rhs = bound.numerator**p.num * den**k
    for n, v in enumerate(nums, start=1):
        if not v:
            break
        if v**k * n**e * lhs_den > rhs:
            return False
    return True


_REL_TOL = Fraction(1, 10**9)  # relative width at which a Lorentz value stops refining


class _Root:
    """A term's root enclosure at one precision.  Once the term has been
    the top term of a ``_lorentz_value`` call, it also keeps the integer
    cut the other terms are tested against, and whether its own
    enclosure meets ``_REL_TOL``."""

    __slots__ = ("iv", "cut", "tight")

    def __init__(self, iv: Interval) -> None:
        self.iv = iv
        self.cut: tuple[int, int] | None = None  # (den_k, limit)
        self.tight: bool | None = None


def _lorentz_value(
    nums: Sequence[int],
    den: int,
    p: LorentzParam,
    roots: dict[tuple[int, int, int], _Root] | None = None,
) -> Interval:
    """``lorentz_value_sq`` on the squares N/D, N in ``nums`` (decreasing,
    nonnegative) and D = ``den``: the terms t_n = (N_n/D)^num n^(2 den)
    share the denominator D^num, so their numerators compare as ints.

    ``roots``, when given, keeps each term's root enclosure under (its
    numerator, D^num, bits) for later calls with the same ``p``.  A later
    call whose top term is already there reuses its cut powers and, when
    no other term moves an end, its ``_REL_TOL`` verdict."""
    if not nums or not nums[0]:
        return Interval.point(0)
    k = 2 * p.num
    t_den = den**p.num
    if roots is None:
        roots = {}

    def root(t: int, bits: int) -> _Root:
        key = (t, t_den, bits)
        entry = roots.get(key)
        if entry is None:
            entry = roots[key] = _Root(root_enclosure(Fraction(t, t_den), k, bits))
        return entry

    terms = []  # numerators of t_n over t_den
    for n, v in enumerate(nums, start=1):
        if not v:
            break
        terms.append(v**p.num * n ** (2 * p.den))
    top = max(terms)
    for bits in (96, 192, 384):
        entry = root(top, bits)
        iv = entry.iv
        if entry.cut is None:
            hi = iv.hi
            # root of t <= hi - 2^-bits  <=>  t (hi.den 2^bits)^k <= cut^k t_den
            cut = max((hi.numerator << bits) - hi.denominator, 0)
            entry.cut = ((hi.denominator << bits) ** k, cut**k * t_den)
        den_k, limit = entry.cut
        lo, hi = iv.lo, iv.hi
        for t in terms:
            # a term equal to the top one has the same enclosure
            if t == top or t * den_k <= limit:
                continue
            other = root(t, bits).iv
            lo = max(lo, other.lo)
            hi = max(hi, other.hi)
        if lo == iv.lo and hi == iv.hi:  # no other term moved an end
            if entry.tight is None:
                entry.tight = hi - lo <= _REL_TOL * lo
            if entry.tight:
                return iv
        elif hi - lo <= _REL_TOL * lo:
            return Interval(lo, hi)
    raise ArithmeticError("rel_tol unreachable")


def lorentz_le_sq(
    values_sq: Iterable[Rational], bound: Rational, p: LorentzParam, power: int = 2
) -> bool:
    """Decide sup_n a*_n n^(1/p) <= c given the squares a_n^2 and bound = c^power.

    power is 2 (bound c^2) or 4 (bound c^4).  The test is exact in
    integers: with k = num * power/2, e = den * power, the squares put
    over one common denominator D and bound = B/C, N^k n^e C^num <=
    B^num D^k for the n-th largest numerator N is the power test
    multiplied through by the positive denominators.
    """
    if power not in (2, 4):
        raise ValueError("power must be 2 or 4")
    if not isinstance(bound, Fraction):
        bound = Fraction(bound)
    if bound < 0:
        raise ValueError("negative bound")
    nums, den = _over_common_den(values_sq)
    if nums and nums[-1] < 0:
        raise ValueError("negative square in data")
    return _lorentz_le(nums, den, bound, p, power)


def lorentz_value_sq(values_sq: Iterable[Rational], p: LorentzParam) -> Interval:
    """Enclose sup_n sqrt(a2*_n) n^(1/p) from squared data.

    The enclosure is [max lo_n, max hi_n] over the ``bits``-bit root
    enclosures of the terms value_n = t_n^(1/k), t_n = a2*_n^num n^(2 den)
    and k = 2 num.  Only the largest t_n's root is always enclosed.  Its
    upper end hi satisfies hi - 2^-bits <= lo whether the root is exact
    or not, so a term whose root is at most hi - 2^-bits moves neither
    end and is skipped after an integer power test.  The precision grows
    from 96 to 384 bits until hi - lo <= ``_REL_TOL`` * lo, 10^-9.
    """
    nums, den = _over_common_den(values_sq)
    if nums and nums[-1] < 0:
        raise ValueError("negative square in data")
    return _lorentz_value(nums, den, p)


# -- the series constant ------------------------------------------------------

_ACC_BITS = 96  # scaled-integer accumulator; rounding stays ~1e-29 per term
_TERM_BITS = 64


def _constant_sq(num: int, den: int, terms: int) -> Interval:
    scale = 1 << _TERM_BITS
    acc_scale = 1 << _ACC_BITS
    q_num, q_den = 2 * den, num  # exponent 2/p = 2 den / num
    lo_acc = hi_acc = 0
    s_pow = scale**q_den
    for n in range(1, terms + 1):
        # n^(2/p) in [m, m+1] / scale, so the term n^(-2/p) lies in
        # [scale/(m+1), scale/m]; accumulate at acc_scale with outward floor/ceil.
        m = iroot(s_pow * n**q_num, q_den)
        lo_acc += (acc_scale * scale) // (m + 1)
        hi_acc += -((-acc_scale * scale) // m)
    partial = Interval(Fraction(lo_acc, acc_scale), Fraction(hi_acc, acc_scale))
    # Tail sum over n > terms sandwiched by integrals of t^(-2/p):
    # integral from M to infinity = num/(2 den - num) * M^(1 - 2/p).
    coeff = Fraction(num, 2 * den - num)
    tail_exp_num, tail_exp_den = -(2 * den - num), num
    tail_lo = pow_enclosure(terms + 1, tail_exp_num, tail_exp_den, _TERM_BITS).lo * coeff
    tail_hi = pow_enclosure(terms, tail_exp_num, tail_exp_den, _TERM_BITS).hi * coeff
    return Interval(partial.lo + tail_lo, partial.hi + tail_hi)


@lru_cache(maxsize=16)
def lorentz_l2_constant(p: LorentzParam) -> Interval:
    """Enclose C(p) = (sum_{n>=1} n^(-2/p))^(1/2).

    The partial sum of 10^4 terms is accumulated in scaled integers; the
    series tail is bounded between the integrals starting at terms+1 and
    at terms (``_constant_sq``, where more terms give a nested, tighter
    enclosure).
    """
    c_sq = _constant_sq(p.num, p.den, 10**4)
    return Interval(sqrt_enclosure(c_sq.lo).lo, sqrt_enclosure(c_sq.hi).hi)


# -- row pairings -------------------------------------------------------------


def pairing_vector(coeffs: Iterable[Rational]) -> TriVector:
    """Constant-on-rows vector: value c_i / i on every cell of row i."""
    entries: dict[tuple[int, int], Fraction] = {}
    for i, c in enumerate(coeffs, start=1):
        f = Fraction(c)
        if f:
            for j in range(1, i + 1):
                entries[(i, j)] = f / i
    return TriVector(entries)


def row_pairing(x: TriVector, coeffs: Iterable[Rational]) -> Fraction:
    """<x, pairing_vector(coeffs)> = sum_i (c_i / i) * (signed row i sum)."""
    total = Fraction(0)
    for i, c in enumerate(coeffs, start=1):
        f = Fraction(c)
        if f:
            total += f * x.row_sum(i) / i
    return total
