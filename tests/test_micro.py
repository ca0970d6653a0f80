"""Tests for the refining gauge enclosure on small supports."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigauge.core import DEFAULT_P, TriVector, lorentz_l2_constant
from trigauge.gauge import GaugeLowerWitness, gauge_interval
from trigauge.generators import GridSeq
from trigauge.micro import (
    DEFAULT_TOL,
    SUPPORT_ROW_CAP,
    ToleranceUnreachableError,
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
