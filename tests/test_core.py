"""Core vector type and Lorentz comparisons against independent oracles."""

from fractions import Fraction
from math import lcm
from types import SimpleNamespace
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from trigauge.core import (
    DEFAULT_P,
    LorentzParam,
    TriVector,
    dot,
    is_row_disjoint,
    l2_norm_sq,
    lorentz_l2_constant,
    lorentz_le_sq,
    lorentz_value_sq,
    pairing_vector,
    row_norm_sq,
    row_pairing,
)
from trigauge import core
from trigauge.exact import Interval, iroot, pow_enclosure, root_enclosure

mpmath.mp.dps = 50

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=12)
tri_index = st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda t: t[0] >= t[1])
tri_vectors = st.dictionaries(tri_index, small_fraction, max_size=10).map(TriVector)


def to_mpf(x) -> mpmath.mpf:
    f = Fraction(x)
    return mpmath.mpf(f.numerator) / f.denominator


def sqrt_le_sum(a, b, c) -> bool:
    """Exact test sqrt(a) <= sqrt(b) + sqrt(c) for rationals a, b, c >= 0:
    it holds iff a - b - c <= 0, or else (a - b - c)^2 <= 4 b c."""
    d = a - b - c
    return d <= 0 or d * d <= 4 * b * c


def squares_desc(values) -> list[Fraction]:
    """Squares of |values| in decreasing order."""
    return sorted((Fraction(v) ** 2 for v in values), reverse=True)


# -- LorentzParam -------------------------------------------------------------


def test_param_validation():
    assert LorentzParam(3, 2).value == Fraction(3, 2)
    assert LorentzParam.from_fraction(Fraction(7, 5)) == LorentzParam(7, 5)
    for num, den in [(2, 1), (1, 1), (4, 2), (5, 3), (2, 3)]:
        if Fraction(num, den) == Fraction(5, 3):
            continue
        with pytest.raises(ValueError):
            LorentzParam(num, den)
    with pytest.raises(ValueError):
        LorentzParam(6, 4)  # not lowest terms


# -- TriVector ----------------------------------------------------------------


def test_trivector_rejects_upper_triangle():
    with pytest.raises(ValueError):
        TriVector({(1, 2): 1})
    with pytest.raises(ValueError):
        TriVector({(0, 0): 1})


def test_trivector_drops_zeros_and_hashes():
    x = TriVector({(3, 1): Fraction(1, 2), (2, 2): 0})
    assert x.support() == ((3, 1),)
    assert hash(x) == hash(TriVector({(3, 1): Fraction(1, 2)}))
    assert x == TriVector({(3, 1): Fraction(1, 2)})


def test_trivector_row_queries():
    x = TriVector({(3, 1): 2, (3, 3): -1, (5, 2): Fraction(1, 3)})
    assert x.row_sum(3) == 1
    assert x.active_rows() == (3, 5)
    assert x.max_row == 5
    assert x.row_entries(3) == {1: Fraction(2), 3: Fraction(-1)}
    assert x.restrict_rows([5]).support() == ((5, 2),)
    assert x.sup_norm() == 2


@given(tri_vectors, tri_vectors)
def test_trivector_additive_group(x, y):
    assert (x + y) - y == x
    assert x + (-x) == TriVector()
    assert (x + y).scale(2) == x.scale(2) + y.scale(2)
    assert abs(x).is_nonnegative() or abs(x).is_zero()


def sum_reference(x: TriVector, y: TriVector) -> dict:
    """Entrywise Fraction sum with cancelled cells dropped."""
    out = {}
    for cell in set(x.support()) | set(y.support()):
        v = x.entry(*cell) + y.entry(*cell)
        if v:
            out[cell] = v
    return out


@given(tri_vectors, st.data())
def test_trivector_add_drops_cancelled_cells(x, data):
    # y cancels a drawn subset of x's cells and adds cells of its own
    cancel = data.draw(st.sets(st.sampled_from(x.support()))) if x else set()
    extra = data.draw(tri_vectors)
    y = TriVector({cell: -x.entry(*cell) for cell in cancel}) + extra.restrict_rows(
        set(extra.active_rows()) - set(x.active_rows())
    )
    total = x + y
    assert dict(total.items()) == sum_reference(x, y)
    assert not set(total.support()) & cancel
    assert all(type(v) is Fraction and v for _, v in total.items())
    assert total == TriVector(sum_reference(x, y))
    assert hash(total) == hash(TriVector(sum_reference(x, y)))
    zero = x + (-x)
    assert zero == TriVector() and hash(zero) == hash(TriVector())
    assert zero.is_zero() and zero.support() == ()


@given(tri_vectors)
def test_trivector_text_round_trip(x):
    assert TriVector.from_text(x.to_text()) == x


def test_trivector_text_format_frozen():
    x = TriVector({(2, 1): Fraction(-1, 3), (1, 1): 2})
    assert x.to_text() == "trivector 1\n1 1 2\n2 1 -1/3\n"
    assert TriVector.from_text("trivector 1\n# comment\n\n4 2 5/7\n").entry(4, 2) == Fraction(5, 7)
    with pytest.raises(ValueError):
        TriVector.from_text("1 1 2\n")
    with pytest.raises(ValueError):
        TriVector.from_text("trivector 1\n1 1 2\n1 1 3\n")


def test_row_disjointness():
    a = TriVector({(1, 1): 1, (2, 1): 1})
    b = TriVector({(3, 2): 1})
    c = TriVector({(2, 2): 1})
    assert is_row_disjoint(a, b)
    assert not is_row_disjoint(a, b, c)
    assert is_row_disjoint(a)


@st.composite
def cover_cases(draw):
    """(parts, x): up to three scaled vectors, some sharing cells, and x
    either drawn freely or |x| a share of their sum with one cell moved,
    so both verdicts and ties on a cell come up."""
    parts = draw(st.lists(st.tuples(tri_vectors, small_fraction), max_size=3))
    total = TriVector()
    for v, c in parts:
        total = total + v.scale(c)
    if draw(st.booleans()):
        return parts, draw(tri_vectors)
    share = draw(st.sampled_from((Fraction(1), Fraction(1, 2))))
    entries = dict(abs(total).scale(share).items())
    cell = draw(tri_index)
    entries[cell] = entries.get(cell, Fraction(0)) + draw(small_fraction)
    sign = draw(st.sampled_from((1, -1)))
    return parts, TriVector(entries).scale(sign)


@settings(max_examples=150, deadline=None)
@given(cover_cases())
def test_covers_matches_the_summed_vector(case):
    parts, x = case
    total = TriVector()
    for v, c in parts:
        total = total + v.scale(c)
    cells = set(total.support()) | set(x.support())
    want = all(total.entry(i, j) >= abs(x.entry(i, j)) for i, j in cells)
    assert core._covers(parts, x) == want


@st.composite
def sum_cases(draw):
    """Up to four (vector, coefficient) pairs; some repeat an earlier
    vector at the opposite coefficient, or at a coefficient of 0, so
    cells cancel, and some cancelled cells come back."""
    parts = draw(st.lists(st.tuples(tri_vectors, small_fraction), max_size=4))
    for v, c in list(parts):
        kind = draw(st.sampled_from(("cancel", "zero", "none")))
        if kind == "cancel":
            parts.append((v, -c))
        elif kind == "zero":
            parts.append((v, 0))
    parts += draw(st.lists(st.tuples(tri_vectors, small_fraction), max_size=2))
    return draw(st.permutations(parts))


@settings(max_examples=200, deadline=None)
@given(sum_cases())
def test_weighted_sum_equals_the_fold(parts):
    total = TriVector()
    for v, c in parts:
        total = total + v.scale(c)
    got = core._weighted_sum(parts)
    assert got == total
    assert all(isinstance(v, Fraction) and v for v in got._entries.values())
    assert core._weighted_sum([]) == TriVector()


# -- seminorm -----------------------------------------------------------------


def row_norm_sq_reference(x: TriVector) -> Fraction:
    """sum_i (|row i| sum / i)^2 in plain Fraction arithmetic."""
    expected = Fraction(0)
    for i in set(x.active_rows()):
        s = sum((abs(x.entry(i, j)) for j in range(1, i + 1)), Fraction(0))
        expected += (s / i) ** 2
    return expected


# mixed signs, coprime and large denominators, many cells per row
wide_fraction = st.builds(
    Fraction,
    st.integers(-10**6, 10**6),
    st.sampled_from((1, 2, 3, 7, 12, 97, 360, 1001, 65537, 10**6 + 3)),
)
wide_index = st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda t: t[0] >= t[1])
wide_vectors = st.dictionaries(wide_index, wide_fraction, max_size=30).map(TriVector)


@given(st.one_of(tri_vectors, wide_vectors))
def test_row_norm_sq_matches_definition(x):
    got = row_norm_sq(x)
    assert got == row_norm_sq_reference(x)
    assert type(got) is Fraction


@given(tri_vectors, tri_vectors)
def test_row_norm_sq_triangle_inequality(x, y):
    assert sqrt_le_sum(row_norm_sq(x + y), row_norm_sq(x), row_norm_sq(y))


def test_row_norm_examples():
    # full row i scaled to average 1/i per cell gives (1/i)^2 ... here row 2 of ones
    assert row_norm_sq(TriVector({(2, 1): 1, (2, 2): 1})) == 1
    assert row_norm_sq(TriVector({(3, 1): 1})) == Fraction(1, 9)
    # sign cancellation does not help: absolute row sums
    assert row_norm_sq(TriVector({(2, 1): 1, (2, 2): -1})) == 1


def test_l2_norm_sq():
    assert l2_norm_sq([Fraction(1, 2), Fraction(-1, 2)]) == Fraction(1, 2)
    assert l2_norm_sq([]) == 0


@given(st.lists(st.one_of(wide_fraction, st.integers(-9, 9)), max_size=30))
def test_l2_norm_sq_matches_fraction_sum(values):
    got = l2_norm_sq(iter(values))
    assert got == sum((Fraction(v) ** 2 for v in values), Fraction(0))
    assert type(got) is Fraction


# -- Lorentz comparisons -------------------------------------------------------


def test_lorentz_le_frozen_examples():
    p = DEFAULT_P
    # four ones against c^2 = 4: fails at n = 3 (81 > 64)
    assert not lorentz_le_sq([1, 1, 1, 1], 4, p)
    # eight ones against c^2 = 16: boundary case 8^4 = 4096 = 16^3 holds
    assert lorentz_le_sq([1] * 8, 16, p)
    assert not lorentz_le_sq([1] * 9, 16, p)
    # the same two against c^4 = 256
    assert lorentz_le_sq([1] * 8, 256, p, power=4)
    assert not lorentz_le_sq([1] * 9, 256, p, power=4)
    assert lorentz_le_sq([], 0, p)
    assert lorentz_le_sq([0, 0], 0, p)
    assert not lorentz_le_sq([Fraction(1, 4)], Fraction(1, 5), p)
    # a negative square is rejected wherever it sorts, even behind a zero
    for values_sq, bound, power in (([0, -1], 1, 2), ([0, -5], 1, 4), ([2, -1], 9, 2)):
        with pytest.raises(ValueError):
            lorentz_le_sq(values_sq, bound, p, power=power)
    with pytest.raises(ValueError):
        lorentz_le_sq([1], -1, p)
    with pytest.raises(ValueError):
        lorentz_le_sq([1], 1, p, power=3)
    with pytest.raises(ValueError):
        lorentz_value_sq([0, -1], p)


@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=8), max_size=8),
    st.fractions(min_value=0, max_value=10, max_denominator=8),
)
def test_lorentz_le_matches_float_oracle(values, c_sq):
    p = DEFAULT_P
    got = lorentz_le_sq([v * v for v in values], c_sq, p)
    sup = mpmath.mpf(0)
    for n, v2 in enumerate(squares_desc(values), start=1):
        sup = max(sup, mpmath.sqrt(to_mpf(v2)) * mpmath.power(n, mpmath.mpf(2) / 3))
    c = mpmath.sqrt(to_mpf(c_sq))
    if abs(sup - c) > mpmath.mpf("1e-30"):
        assert got == (sup < c)
    else:
        assert got  # exact boundary counts as <=


@given(
    st.lists(st.fractions(min_value=0, max_value=3, max_denominator=8), max_size=8),
    st.fractions(min_value=0, max_value=10, max_denominator=8),
)
def test_lorentz_variants_agree(values, c_sq):
    p = LorentzParam(7, 5)
    squares = [v * v for v in values]
    assert lorentz_le_sq(squares, c_sq * c_sq, p, power=4) == lorentz_le_sq(squares, c_sq, p)


def lorentz_le_sq_reference(values_sq, bound, p, power=2):
    """The body of ``lorentz_le_sq`` as it was in Fractions, before the
    integer form, unchanged."""
    if power not in (2, 4):
        raise ValueError("power must be 2 or 4")
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("negative bound")
    squares = [Fraction(v) for v in values_sq]
    if any(v2 < 0 for v2 in squares):
        raise ValueError("negative square in data")
    rhs = bound**p.num
    half = power // 2
    for n, v2 in enumerate(sorted(squares, reverse=True), start=1):
        if v2 == 0:
            break
        if v2 ** (half * p.num) * n ** (power * p.den) > rhs:
            return False
    return True


# the test reads only p.num and p.den, so 2 and 7/3 (outside LorentzParam's
# range) stand in as plain pairs to vary the exponents further
REFERENCE_PS = (
    DEFAULT_P,
    LorentzParam(5, 3),
    SimpleNamespace(num=2, den=1),
    SimpleNamespace(num=7, den=3),
)
int_or_fraction = st.one_of(
    st.integers(0, 9), st.fractions(min_value=0, max_value=9, max_denominator=12)
)


@st.composite
def boundary_cases(draw):
    """v2 and n = m^num with v2^k n^e == bound^num: bound is
    v2^(power/2) m^(power den), so the n-th of n equal squares v2 sits
    exactly on the bound."""
    p = draw(st.sampled_from(REFERENCE_PS))
    power = draw(st.sampled_from((2, 4)))
    m = draw(st.integers(1, 2))
    v2 = draw(int_or_fraction.filter(bool))
    bound = Fraction(v2) ** (power // 2) * m ** (power * p.den)
    return v2, m**p.num, bound, p, power


@settings(max_examples=300)
@given(
    st.lists(int_or_fraction, max_size=8),
    st.one_of(st.just(0), st.just(Fraction(0)), int_or_fraction),
    st.sampled_from(REFERENCE_PS),
    st.sampled_from((2, 4)),
)
def test_lorentz_le_matches_fraction_reference(values_sq, bound, p, power):
    want = lorentz_le_sq_reference(values_sq, bound, p, power)
    assert lorentz_le_sq(values_sq, bound, p, power) == want


@settings(max_examples=100)
@given(boundary_cases())
def test_lorentz_le_exact_boundary(case):
    v2, n, bound, p, power = case
    for count, holds in ((n, True), (n + 1, False)):
        assert lorentz_le_sq_reference([v2] * count, bound, p, power) is holds
        assert lorentz_le_sq([v2] * count, bound, p, power) is holds
    if bound.denominator == 1:
        assert lorentz_le_sq([v2] * n, int(bound), p, power)


def test_lorentz_value_encloses_oracle():
    p = DEFAULT_P
    values = [Fraction(5, 7), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
    iv = lorentz_value_sq([v * v for v in values], p)
    sup = max(
        mpmath.sqrt(to_mpf(v2)) * mpmath.power(n, mpmath.mpf(2) / 3)
        for n, v2 in enumerate(squares_desc(values), 1)
    )
    assert to_mpf(iv.lo) <= sup <= to_mpf(iv.hi)
    assert iv.width <= iv.lo * Fraction(1, 10**9)
    assert lorentz_value_sq([], p).hi == 0


@given(st.lists(st.fractions(min_value=0, max_value=2, max_denominator=6), min_size=1, max_size=6))
def test_lorentz_value_consistent_with_le(values):
    p = LorentzParam(8, 5)
    squares = [v * v for v in values]
    iv = lorentz_value_sq(squares, p)
    # value <= hi certifies the test at hi^2; value > lo refutes at lo^2 - margin
    assert lorentz_le_sq(squares, iv.hi**2, p)
    if iv.lo > 0:
        shrunk = (iv.lo * Fraction(99, 100)) ** 2
        assert not lorentz_le_sq(squares, shrunk, p)


def lorentz_value_sq_reference(values_sq, p, rel_tol=Fraction(1, 10**9)):
    """The body of ``lorentz_value_sq`` as it was when it enclosed every
    term's root, unchanged."""
    squares = sorted((Fraction(v) for v in values_sq), reverse=True)
    if squares and squares[-1] < 0:
        raise ValueError("negative square in data")
    if not squares or squares[0] == 0:
        return Interval.point(0)
    for bits in (96, 192, 384):
        lo = hi = Fraction(0)
        for n, v2 in enumerate(squares, start=1):
            if v2 == 0:
                break
            # value_n = (v2^num * n^(2 den))^(1 / (2 num))
            iv = root_enclosure(v2**p.num * n ** (2 * p.den), 2 * p.num, bits)
            lo = max(lo, iv.lo)
            hi = max(hi, iv.hi)
        if hi - lo <= Fraction(rel_tol) * lo:
            return Interval(lo, hi)
    raise ArithmeticError("rel_tol unreachable")


VALUE_PS = (DEFAULT_P, LorentzParam(5, 4), LorentzParam(7, 4))
# 2^-150 and 2^-250 need the 192- and 384-bit passes on inexact roots near 1
VALUE_TOLS = (Fraction(1, 10**9), Fraction(1, 2**150), Fraction(1, 2**250))


def at_tolerance(rel_tol):
    """The program's refinement tolerance, 10^-9, replaced by rel_tol
    inside the block, so the deeper passes run too."""
    return mock.patch.object(core, "_REL_TOL", rel_tol)


@st.composite
def value_cases(draw):
    """Squares with zeros, repeats, exact roots and near-ties.

    r^2 at rank 1 has the exact root r.  A second square r^2 c at rank 2,
    with c a 200-bit enclosure end of 2^(-2/p), has a root within 2^-190
    of r: just below it for the lower end, just above for the upper end,
    so either the exact root or the inexact one is the largest term.
    """
    p = draw(st.sampled_from(VALUE_PS))
    pool = st.fractions(min_value=0, max_value=4, max_denominator=9)
    value = st.one_of(pool, pool.map(lambda v: v * v), st.just(Fraction(0)))
    squares = draw(st.lists(value, max_size=6))
    squares += draw(st.lists(st.sampled_from(squares or [Fraction(1)]), max_size=3))
    if draw(st.booleans()):
        r = draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=9))
        shrink = pow_enclosure(2, -2 * p.den, p.num, bits=200)
        c = draw(st.sampled_from((shrink.lo, shrink.hi)))
        squares += [r * r, r * r * c]
    return draw(st.permutations(squares)), p, draw(st.sampled_from(VALUE_TOLS))


def outcome(value_sq, *args):
    try:
        return value_sq(*args)
    except ArithmeticError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(value_cases())
def test_lorentz_value_matches_every_root_reference(case):
    squares, p, rel_tol = case
    with at_tolerance(rel_tol):
        got = outcome(lorentz_value_sq, squares, p)
    assert got == outcome(lorentz_value_sq_reference, squares, p, rel_tol)


@pytest.mark.parametrize(
    "squares, roots",
    [
        ([Fraction(4), 1, Fraction(1, 4)], 1),  # exact top root 2, far ahead
        ([2, Fraction(1, 2), Fraction(1, 2), 0], 1),  # inexact top root sqrt 2
        ([1, pow_enclosure(2, -4, 3, bits=200).lo], 2),  # a near-tie is enclosed
    ],
    ids=["exact-top", "inexact-top", "near-tie"],
)
def test_lorentz_value_encloses_only_roots_that_can_matter(monkeypatch, squares, roots):
    calls = []

    def counted(x, k, bits=64):
        calls.append(x)
        return root_enclosure(x, k, bits)

    monkeypatch.setattr(core, "root_enclosure", counted)
    assert lorentz_value_sq(squares, DEFAULT_P) == lorentz_value_sq_reference(squares, DEFAULT_P)
    assert len(calls) == roots


# -- the common-denominator kernel against the Fraction-keyed versions ----------


def lorentz_le_sq_fraction_keys(values_sq, bound, p, power=2):
    """The body of ``lorentz_le_sq`` as it was when it sorted the squares
    as Fractions, before the common-denominator kernel, unchanged."""
    if power not in (2, 4):
        raise ValueError("power must be 2 or 4")
    if not isinstance(bound, Fraction):
        bound = Fraction(bound)
    if bound < 0:
        raise ValueError("negative bound")
    squares = [v if isinstance(v, Fraction) else Fraction(v) for v in values_sq]
    if any(v2 < 0 for v2 in squares):
        raise ValueError("negative square in data")
    rhs_num = bound.numerator**p.num
    rhs_den = bound.denominator**p.num
    k = power // 2 * p.num
    e = power * p.den
    for n, v2 in enumerate(sorted(squares, reverse=True), start=1):
        if v2 == 0:
            break
        if v2.numerator**k * n**e * rhs_den > rhs_num * v2.denominator**k:
            return False
    return True


def lorentz_value_sq_fraction_keys(values_sq, p, rel_tol=Fraction(1, 10**9)):
    """The body of ``lorentz_value_sq`` as it was when it sorted the
    squares as Fractions, before the common-denominator kernel, unchanged."""
    squares = sorted((Fraction(v) for v in values_sq), reverse=True)
    if squares and squares[-1] < 0:
        raise ValueError("negative square in data")
    if not squares or squares[0] == 0:
        return Interval.point(0)
    k = 2 * p.num
    terms = []  # (numerator, denominator) of t_n
    for n, v2 in enumerate(squares, start=1):
        if v2 == 0:
            break
        terms.append((v2.numerator**p.num * n ** (2 * p.den), v2.denominator**p.num))
    top = terms[0]
    for t in terms[1:]:
        if t[0] * top[1] > top[0] * t[1]:
            top = t
    for bits in (96, 192, 384):
        iv = root_enclosure(Fraction(*top), k, bits)
        lo, hi = iv.lo, iv.hi
        # root of t <= hi - 2^-bits  <=>  t.num (hi.den 2^bits)^k <= cut^k t.den
        cut = max((hi.numerator << bits) - hi.denominator, 0)
        cut_k, den_k = cut**k, (hi.denominator << bits) ** k
        for t in terms:
            if t is top or t[0] * den_k <= cut_k * t[1]:
                continue
            other = root_enclosure(Fraction(*t), k, bits)
            lo = max(lo, other.lo)
            hi = max(hi, other.hi)
        if hi - lo <= Fraction(rel_tol) * lo:
            return Interval(lo, hi)
    raise ArithmeticError("rel_tol unreachable")


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


KERNEL_PS = (DEFAULT_P, LorentzParam(5, 4), LorentzParam(7, 4))
# pairwise coprime denominators, so a few values put over one common
# denominator already need a large lcm
LCM_DENS = (3, 7, 11, 16, 25, 27, 49, 97, 101, 1009, 65537)
kernel_square = st.one_of(
    st.integers(0, 9),
    st.fractions(min_value=0, max_value=9, max_denominator=12),
    st.builds(Fraction, st.integers(0, 5000), st.sampled_from(LCM_DENS)),
)
kernel_bound = st.one_of(st.just(0), st.just(Fraction(0)), kernel_square)


@st.composite
def kernel_squares(draw):
    """Mixed int and Fraction squares with zeros, repeats, lcm-heavy
    denominators and, now and then, a negative value anywhere."""
    squares = draw(st.lists(kernel_square, max_size=8))
    squares += draw(st.lists(st.sampled_from(squares or [0]), max_size=3))
    if draw(st.integers(0, 9)) == 0:
        squares.append(draw(st.sampled_from((-1, Fraction(-1, 1009)))))
    return draw(st.permutations(squares))


@settings(max_examples=400, deadline=None)
@given(kernel_squares(), kernel_bound, st.sampled_from(KERNEL_PS), st.sampled_from((2, 4)))
def test_lorentz_le_matches_fraction_keys(values_sq, bound, p, power):
    want = result_or_error(lorentz_le_sq_fraction_keys, values_sq, bound, p, power)
    assert result_or_error(lorentz_le_sq, values_sq, bound, p, power) == want


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(kernel_squares(), value_cases().map(lambda case: case[0])),
    st.sampled_from(KERNEL_PS),
    st.sampled_from(VALUE_TOLS),
)
def test_lorentz_value_matches_fraction_keys(values_sq, p, rel_tol):
    want = result_or_error(lorentz_value_sq_fraction_keys, values_sq, p, rel_tol)
    with at_tolerance(rel_tol):
        assert result_or_error(lorentz_value_sq, values_sq, p) == want


def test_kernel_edge_cases_match_fraction_keys():
    for p in KERNEL_PS:
        for power in (2, 4):
            for values_sq, bound in (
                ([], 0),
                ([0, 0], 0),
                ([Fraction(1, 16)] * 8, 1),
                ([Fraction(1, 16)] * 9, 1),
                ([1, Fraction(1, 3), 2, Fraction(1, 3)], 16),
                ([Fraction(1, 65537), Fraction(2, 1009), 3], Fraction(5, 49)),
                ([0, -1], 1),
                ([1], -1),
            ):
                want = result_or_error(lorentz_le_sq_fraction_keys, values_sq, bound, p, power)
                assert result_or_error(lorentz_le_sq, values_sq, bound, p, power) == want
        for values_sq in ([], [0], [0, -1], [Fraction(1, 16)] * 9, [2, 2, 1, Fraction(1, 3)]):
            want = result_or_error(lorentz_value_sq_fraction_keys, values_sq, p)
            assert result_or_error(lorentz_value_sq, values_sq, p) == want


# -- shared root enclosures and one-pass row seminorms --------------------------


@st.composite
def shared_root_cases(draw):
    """Two decreasing numerator lists, each under two denominators, in a
    drawn order.  After the first, a numerator repeats the one before it
    (a tie), sits as close below the top term as integers allow (its root
    within about 2^-100 of the top's), or is drawn freely."""
    p = draw(st.sampled_from(VALUE_PS))

    def nums():
        top = draw(st.integers(1, 2**100))
        out = [top]
        for n in range(2, draw(st.integers(1, 6)) + 1):
            kind = draw(st.sampled_from(("tie", "near", "free")))
            if kind == "tie":
                v = out[-1]
            elif kind == "near":
                v = iroot(top**p.num // n ** (2 * p.den), p.num) + draw(st.integers(0, 1))
            else:
                v = draw(st.integers(0, out[-1]))
            out.append(min(v, out[-1]))
        return out

    lists = [nums(), nums()]
    dens = draw(st.lists(st.integers(1, 10**6), min_size=2, max_size=2, unique=True))
    calls = [(a, d) for a in lists for d in dens]
    return p, draw(st.permutations(calls)) + calls[:1]


@settings(max_examples=200, deadline=None)
@given(shared_root_cases())
def test_lorentz_value_with_shared_roots_matches_fresh(case):
    p, calls = case
    roots = {}
    for nums, den in calls:
        assert core._lorentz_value(nums, den, p, roots=roots) == core._lorentz_value(nums, den, p)


@settings(max_examples=200, deadline=None)
@given(shared_root_cases(), st.data())
def test_shared_roots_give_fresh_intervals_at_every_tolerance(case, data):
    # a top term met again reuses its cut and, when no other term moves an
    # end, its verdict; the tolerance is fixed, so the verdict carries none
    p, calls = case
    roots = {}
    with at_tolerance(data.draw(st.sampled_from(VALUE_TOLS))):
        for nums, den in calls:
            want = result_or_error(core._lorentz_value, nums, den, p)
            assert result_or_error(core._lorentz_value, nums, den, p, roots) == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(tri_vectors, wide_vectors))
def test_row_norm_nums_match_each_row(x):
    nums, den = core._row_norm_nums(x)
    rows = x.active_rows()
    per_row = [row_norm_sq(x.restrict_rows([i])) for i in rows]
    assert sorted(nums) == list(rows)
    assert [Fraction(nums[i], den) for i in rows] == per_row
    # the least common denominator, as the per-row squares put over one
    assert den == lcm(1, *(v.denominator for v in per_row))


# -- series constant -----------------------------------------------------------


def test_constant_matches_zeta_oracle():
    # Sum n^(-2/p) = zeta(2/p); at p = 3/2 this is zeta(4/3), C ~ 1.8976
    p = DEFAULT_P
    iv = lorentz_l2_constant(p)
    true = mpmath.sqrt(mpmath.zeta(mpmath.mpf(4) / 3))
    assert to_mpf(iv.lo) <= true <= to_mpf(iv.hi)
    assert iv.width < Fraction(1, 10**3)
    assert abs(float((iv.lo + iv.hi) / 2) - 1.8976) < 5e-4


def test_constant_sq_matches_zeta_oracle_other_p():
    iv = core._constant_sq(7, 4, 2000)
    true = mpmath.zeta(mpmath.mpf(8) / 7)
    assert to_mpf(iv.lo) <= true <= to_mpf(iv.hi)


def test_constant_nesting_in_terms():
    p = DEFAULT_P
    prev = core._constant_sq(p.num, p.den, 50)
    for terms in (200, 1000, 5000, 10**4):
        cur = core._constant_sq(p.num, p.den, terms)
        assert prev.lo <= cur.lo and cur.hi <= prev.hi
        prev = cur
    c = lorentz_l2_constant(p)
    assert c.lo**2 <= prev.lo and prev.hi <= c.hi**2


# -- pairings -------------------------------------------------------------------


@given(tri_vectors, st.lists(small_fraction, max_size=6))
def test_row_pairing_equals_dot_with_pairing_vector(x, coeffs):
    assert row_pairing(x, coeffs) == dot(x, pairing_vector(coeffs))


def test_pairing_vector_shape():
    z = pairing_vector([0, Fraction(1, 2)])
    assert z.support() == ((2, 1), (2, 2))
    assert z.entry(2, 1) == Fraction(1, 4)


def test_dot_symmetry():
    x = TriVector({(2, 1): Fraction(1, 2), (4, 3): -2})
    y = TriVector({(2, 1): 3, (4, 3): Fraction(1, 4), (5, 5): 9})
    assert dot(x, y) == dot(y, x) == Fraction(3, 2) - Fraction(1, 2)
