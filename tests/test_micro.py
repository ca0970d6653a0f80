"""Tests for the refining gauge enclosure on small supports."""

import itertools
import random
from fractions import Fraction as F
from typing import Callable, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigauge import micro
from trigauge.core import DEFAULT_P, LorentzParam, TriVector, lorentz_l2_constant
from trigauge.gauge import GaugeLowerWitness, gauge_interval
from trigauge.generators import GridSeq
from trigauge.micro import (
    Cell,
    Number,
    DEFAULT_TOL,
    SUPPORT_ROW_CAP,
    ToleranceUnreachableError,
    _ascend_dual,
    _ceiling,
    _exact_bounds,
    _float_bounds,
    _gens_on,
    _patterns,
    tau_micro_oracle,
)

P = DEFAULT_P
C_HI = lorentz_l2_constant(P).hi

# independent high-precision values (mpmath, 30 digits), b_k = k**(-2/3):
#   2 / (1 + b_2), (7/4) / (1 + b_2), 3 / (2 (1 + b_2 + b_3))
MIXED_VALUE = F("1.227023580871381258086914")
BAND_VALUE = F("1.07364563326245860082605")
UNIFORM_VALUE = F("0.7106612129230625927777643")

EPS = F(1, 10**9)


def full_row(i):
    return GridSeq.make(0 if r != i else i for r in range(1, i + 1)).indicator()


def contains(iv, value):
    return iv.lo - EPS <= value <= iv.hi + EPS


class TestCheapPath:
    def test_zero(self):
        iv = tau_micro_oracle(TriVector(), P)
        assert iv.lo == iv.hi == 0

    def test_single_cell(self):
        iv = tau_micro_oracle(TriVector({(1, 1): F(1)}), P)
        assert iv.lo == iv.hi == 1

    def test_scaled_indicator_is_point(self):
        # the sup floor and the hull bound meet at the scale
        iv = tau_micro_oracle(full_row(2).scale(F(3, 7)), P)
        assert iv.lo == iv.hi == F(3, 7)

    def test_unit_indicators_pin_to_one(self):
        for i in (1, 2, 3):
            iv = tau_micro_oracle(full_row(i), P)
            assert iv.lo == iv.hi == 1
            assert 1 / C_HI <= iv.lo

    def test_disjoint_scaled_sum_takes_max(self):
        # second scale stays under the rank-2 budget: 5/8 < 2**(-2/3),
        # so x / (3/5) is already a unit member and the sup matches
        x = full_row(1).scale(F(3, 5)) + full_row(2).scale(F(3, 8))
        iv = tau_micro_oracle(x, P)
        assert iv.lo == iv.hi == F(3, 5)

    def test_witnesses_validate(self):
        x = full_row(2).scale(F(3, 7))
        iv = tau_micro_oracle(x, P)
        iv.upper.validate(x)
        iv.lower.validate(x)


class TestRefinement:
    def test_two_full_rows(self):
        # one cell over the rank-2 budget forces the refinement loop;
        # closed form: (1 + 1) / (1 + 2**(-2/3))
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        iv = tau_micro_oracle(x, P)
        assert iv.hi - iv.lo <= DEFAULT_TOL
        assert contains(iv, MIXED_VALUE)
        iv.upper.validate(x)
        iv.lower.validate(x)

    def test_band_scales(self):
        # rows 1 and 3 at scales 3/4 and 1: (3/4 + 1) / (1 + 2**(-2/3))
        x = full_row(1).scale(F(3, 4)) + full_row(3)
        iv = tau_micro_oracle(x, P)
        assert iv.hi - iv.lo <= DEFAULT_TOL
        assert contains(iv, BAND_VALUE)

    def test_three_row_uniform(self):
        # all cells at 1/2: 3 / (2 (1 + 2**(-2/3) + 3**(-2/3)))
        x = TriVector({(i, j): F(1, 2) for i in range(1, 4) for j in range(1, i + 1)})
        iv = tau_micro_oracle(x, P)
        assert iv.hi - iv.lo <= DEFAULT_TOL
        assert contains(iv, UNIFORM_VALUE)

    def test_refined_interval_inside_cheap_interval(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        cheap = gauge_interval(x, P)
        iv = tau_micro_oracle(x, P)
        assert cheap.lo <= iv.lo <= iv.hi <= cheap.hi

    def test_negative_entries_match_modulus(self):
        x = TriVector({(1, 1): F(-1), (2, 1): F(1), (2, 2): F(-1)})
        iv = tau_micro_oracle(x, P)
        assert contains(iv, MIXED_VALUE)

    def test_loose_tolerance_stops_early(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        iv = tau_micro_oracle(x, P, tol=F(1, 2))
        assert iv.hi - iv.lo <= F(1, 2)

    def test_lower_witness_is_dual(self):
        # the cheap sup floor gives 1 here, so the dual route must be the
        # one that closes the gap
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        iv = tau_micro_oracle(x, P)
        assert iv.lower.kind == "dual"
        assert iv.lower.value > 1


class TestValidationErrors:
    def test_support_row_cap(self):
        x = TriVector({(4, 1): F(1)})
        with pytest.raises(ValueError, match="support reaches row 4"):
            tau_micro_oracle(x, P)

    def test_cap_matches_constant(self):
        x = TriVector({(SUPPORT_ROW_CAP, 1): F(1, 2)})
        tau_micro_oracle(x, P)  # at the cap is fine

    def test_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            tau_micro_oracle(TriVector({(1, 1): F(1)}), P, tol=F(0))
        with pytest.raises(ValueError):
            tau_micro_oracle(TriVector({(1, 1): F(1)}), P, tol=F(-1, 10))

    def test_tampered_dual_witness_caught(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        iv = tau_micro_oracle(x, P)
        w = iv.lower
        bad = GaugeLowerWitness(w.value * 2, w.kind, w.detail, w.ceiling)
        with pytest.raises(AssertionError, match="does not reach"):
            bad.validate(x)

    def test_shrunken_dual_ceiling_caught(self):
        # value * ceiling is unchanged, so only the re-derived ceiling catches it
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        w = tau_micro_oracle(x, P).lower
        assert w.kind == "dual"
        forged = GaugeLowerWitness(w.value * 1000, w.kind, w.detail, w.ceiling / 1000, w.p)
        with pytest.raises(AssertionError, match="certified dual bound"):
            forged.validate(x)

    def test_dual_cells_checked(self):
        x = TriVector({(4, 1): F(1), (1, 1): F(1)})
        past_cap = GaugeLowerWitness(F(1, 2), "dual", (((4, 1),), (F(1),)), F(1))
        with pytest.raises(AssertionError, match="rows 1..3"):
            past_cap.validate(x)
        repeated = GaugeLowerWitness(F(1, 2), "dual", (((1, 1), (1, 1)), (F(1), F(1))), F(1))
        with pytest.raises(AssertionError, match="repeat"):
            repeated.validate(x)

    def test_negative_dual_weights_caught(self):
        bad = GaugeLowerWitness(
            F(1, 2), "dual", (((1, 1),), (F(-1),)), F(1)
        )
        with pytest.raises(AssertionError, match="nonnegative"):
            bad.validate(TriVector({(1, 1): F(1)}))


class TestUnreachable:
    def test_zero_rounds_reports_cheap_interval(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        cheap = gauge_interval(x, P)
        with pytest.raises(ToleranceUnreachableError) as info:
            tau_micro_oracle(x, P, max_rounds=0)
        err = info.value
        assert err.rounds == 0
        assert err.tol == DEFAULT_TOL
        assert err.interval.lo == cheap.lo
        assert err.interval.hi == cheap.hi
        assert err.interval.lo <= err.interval.hi
        err.interval.upper.validate(x)
        err.interval.lower.validate(x)

    def test_message_names_the_gap(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        with pytest.raises(ToleranceUnreachableError, match="refinement rounds"):
            tau_micro_oracle(x, P, max_rounds=0)


class TestDeterminism:
    def test_identical_runs_identical_bounds(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        a = tau_micro_oracle(x, P)
        b = tau_micro_oracle(x, P)
        assert a.lo == b.lo and a.hi == b.hi
        assert a.lower.value == b.lower.value
        assert a.upper.scale == b.upper.scale


class TestPatterns:
    def test_three_row_count(self):
        # partitions of three rows weighted by rank orderings: 1 + 6 + 6
        assert len(_patterns((1, 2, 3))) == 13

    def test_single_row_count(self):
        assert len(_patterns((1,))) == 1


@st.composite
def small_vectors(draw):
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(
                lambda ij: ij[0] >= ij[1]
            ),
            st.fractions(min_value=F(-2), max_value=F(2), max_denominator=12),
            max_size=4,
        )
    )
    return TriVector(cells)


class TestSoundness:
    @settings(max_examples=25, deadline=None)
    @given(small_vectors())
    def test_enclosure_inside_cheap_bounds(self, x):
        cheap = gauge_interval(x, P)
        try:
            iv = tau_micro_oracle(x, P, tol=F(1, 4))
        except ToleranceUnreachableError as err:
            iv = err.interval
        assert cheap.lo <= iv.lo <= iv.hi <= cheap.hi
        iv.upper.validate(x)
        iv.lower.validate(x)


# -- the ceiling against a per-slot evaluation ---------------------------------


def ceiling_reference(
    y: Mapping[Cell, Number],
    rows: tuple[int, ...],
    zero: Number,
    budget: Callable[[int], Number],
    sqrt_hi: Callable[[Number], Number],
) -> Number:
    """The micro ceiling as it was before row groups were shared across
    ranks, verbatim but for its name and this docstring: each (group,
    rank) slot is evaluated from scratch.  ``micro._ceiling`` must
    reproduce it bit for bit."""
    key_cache: dict[tuple[tuple[int, ...], int], Number] = {}

    def key_bound(group: tuple[int, ...], rank: int) -> Number:
        cached = key_cache.get((group, rank))
        if cached is not None:
            return cached
        cells = [c for c in y if c[0] in group and y[c] > 0]
        if not cells:
            key_cache[group, rank] = zero
            return zero
        hull = zero
        for seq in _gens_on(group):
            m = seq.m
            val = sum(
                (y[c] for c in cells if c[0] <= len(m) and c[1] <= m[c[0] - 1]),
                zero,
            )
            hull = max(hull, val)
        # Pieces stay within [0, 1] per cell, so a row contributes at most
        # its y mass; through the seminorm ball it contributes at most
        # beta * i * max(y on the row).  Minimize over which rows take
        # the mass route.
        row_mass: dict[int, Number] = {}
        row_peak: dict[int, Number] = {}
        for (i, _), w in ((c, y[c]) for c in cells):
            row_mass[i] = row_mass.get(i, zero) + w
            row_peak[i] = max(row_peak.get(i, zero), w)
        beta = budget(rank)
        active = sorted(row_mass)
        capped = None
        for size in range(len(active) + 1):
            for taken in itertools.combinations(active, size):
                rest_sq = sum(
                    ((i * row_peak[i]) ** 2 for i in active if i not in taken),
                    zero,
                )
                val = sum((row_mass[i] for i in taken), zero)
                if rest_sq:
                    val += beta * sqrt_hi(rest_sq)
                if capped is None or val < capped:
                    capped = val
        bound = min(hull, capped)
        key_cache[group, rank] = bound
        return bound

    best = zero
    for pattern in _patterns(rows):
        total = zero
        for group, rank in pattern:
            total += key_bound(group, rank)
        best = max(best, total)
    return best


MICRO_CELLS = [(i, j) for i in range(1, 4) for j in range(1, i + 1)]
CEILING_PS = (DEFAULT_P, LorentzParam(5, 3), LorentzParam(7, 4))

# quotients of large ints round in their last bit, so a reordered sum of
# three or more of them shows; zeros, negatives and tiny values mix in
ugly_floats = st.builds(lambda a, b: a / b, st.integers(1, 10**9), st.integers(10**8, 10**9))
float_entries = st.one_of(
    ugly_floats,
    ugly_floats,
    ugly_floats,
    st.just(0.0),
    st.floats(-2, 0),
    st.floats(1e-300, 1e-150),  # squares underflow to 0.0
)
fraction_entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-2, max_value=2, max_denominator=60),
    st.fractions(min_value=F(1, 10**30), max_value=F(1, 10**20), max_denominator=10**31),
)


@st.composite
def ceiling_cases(draw, entries):
    cells = draw(st.lists(st.sampled_from(MICRO_CELLS), min_size=1, max_size=6, unique=True))
    y = {c: draw(entries) for c in cells}  # key order is the drawn, shuffled order
    rows = tuple(sorted({i for i, _ in cells} | set(draw(st.sets(st.integers(1, 3))))))
    return y, rows, draw(st.sampled_from(CEILING_PS))


class TestCeilingIdentity:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(ceiling_cases(float_entries), min_size=1, max_size=4))
    def test_float_bit_identical(self, cases):
        shared = _float_bounds(DEFAULT_P)
        memo = {}  # one memo across the cases, each looked up twice, as in the dual search
        for y, rows, p in cases:
            bounds = _float_bounds(p)
            assert _ceiling(y, rows, 0.0, *bounds).hex() == ceiling_reference(y, rows, 0.0, *bounds).hex()
            want = ceiling_reference(y, rows, 0.0, *shared).hex()
            for _ in range(2):
                assert _ceiling(y, rows, 0.0, *shared, memo).hex() == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ceiling_cases(fraction_entries), min_size=1, max_size=3))
    def test_fraction_equal(self, cases):
        shared = _exact_bounds(DEFAULT_P)
        memo = {}
        for y, rows, p in cases:
            bounds = _exact_bounds(p)
            got = _ceiling(y, rows, F(0), *bounds)
            want = ceiling_reference(y, rows, F(0), *bounds)
            assert type(got) is type(want) and got == want
            want = ceiling_reference(y, rows, F(0), *shared)
            for _ in range(2):
                assert _ceiling(y, rows, F(0), *shared, memo) == want

    def test_random_walk_bit_identical(self):
        # one-cell moves as in the dual search, with cells leaving and
        # re-entering the support and the key order reshuffled; a hull
        # binds on three or more summed values in only a few percent of
        # supports, so this walk is long
        bounds = _float_bounds(DEFAULT_P)
        rng = random.Random(5)
        memo = {}
        y = {c: rng.uniform(0.01, 3) for c in MICRO_CELLS}
        for _ in range(600):
            c = rng.choice(MICRO_CELLS)
            y[c] = rng.choice((y[c] * rng.uniform(0.5, 2), 0.0, rng.uniform(0.01, 3)))
            order = list(y)
            rng.shuffle(order)
            y = {k: y[k] for k in order}
            want = ceiling_reference(y, (1, 2, 3), 0.0, *bounds).hex()
            assert _ceiling(y, (1, 2, 3), 0.0, *bounds).hex() == want
            assert _ceiling(y, (1, 2, 3), 0.0, *bounds, memo).hex() == want


FAILING_SUPPORTS = (
    {(1, 1): F(-7, 8), (2, 1): F(3, 2), (2, 2): F(5, 4), (3, 1): F(1), (3, 3): F(13, 8)},
    {(2, 1): F(3, 4), (2, 2): F(15, 8), (3, 1): F(13, 8), (3, 2): F(-13, 8), (3, 3): F(3, 2)},
)


@pytest.mark.parametrize("cells", FAILING_SUPPORTS, ids=["five-cells-rows-1-3", "five-cells-rows-2-3"])
def test_ascend_dual_matches_reference_ceiling(cells, monkeypatch):
    target = {c: abs(v) for c, v in sorted(cells.items())}
    rows = tuple(sorted({i for i, _ in target}))
    start = {c: v / 2 for c, v in list(target.items())[::2]}
    got = [_ascend_dual(s, target, rows, P, 20) for s in (start, target)]
    monkeypatch.setattr(
        micro,
        "_ceiling",
        lambda y, rows, zero, budget, sqrt_hi, memo=None: ceiling_reference(
            y, rows, zero, budget, sqrt_hi
        ),
    )
    want = [_ascend_dual(s, target, rows, P, 20) for s in (start, target)]
    assert [{c: v.hex() for c, v in d.items()} for d in got] == [
        {c: v.hex() for c, v in d.items()} for d in want
    ]
