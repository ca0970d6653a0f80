"""Exact simplex against scipy's float LP solver and hand-checked cases."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from trigauge.lp import solve_lp


def test_single_variable_bound():
    res = solve_lp([1], [[1]], [3])
    assert res.status == "optimal"
    assert res.objective == 3
    assert res.x == (Fraction(3),)
    assert res.duals == (Fraction(1),)


def test_upper_bound_via_negated_row():
    # maximize x s.t. x <= 2  ==  min -x s.t. -x >= -2
    res = solve_lp([-1], [[-1]], [-2])
    assert res.status == "optimal"
    assert res.objective == -2
    assert res.x == (Fraction(2),)


def test_infeasible():
    res = solve_lp([0], [[1], [-1]], [1, 0])  # x >= 1 and x <= 0
    assert res.status == "infeasible"


def test_unbounded():
    assert solve_lp([-1], [[1]], [1]).status == "unbounded"
    assert solve_lp([-1], [], []).status == "unbounded"
    assert solve_lp([2, 3], [], []).objective == 0


def test_two_variable_known_duals():
    # min x1 + 2 x2 s.t. x1 + x2 >= 4, x2 >= 1: optimum at (3, 1), obj 5
    res = solve_lp([1, 2], [[1, 1], [0, 1]], [4, 1])
    assert res.objective == 5
    assert res.x == (Fraction(3), Fraction(1))
    # dual: y1 = 1 (binding), y2 = 1 (c2 - y1 = 1)
    assert res.duals == (Fraction(1), Fraction(1))


def test_redundant_constraint_dropped():
    # second row is the doubled first row; still solvable with valid duals
    res = solve_lp([1, 1], [[1, 1], [2, 2]], [2, 4])
    assert res.status == "optimal"
    assert res.objective == 2


def test_degenerate_vertex():
    # three constraints meeting at the same point; Bland terminates
    res = solve_lp([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1, 2])
    assert res.objective == 2


def test_fractional_data():
    res = solve_lp(
        [Fraction(1, 3), Fraction(1, 7)],
        [[Fraction(2, 5), Fraction(1, 2)]],
        [Fraction(3, 4)],
    )
    assert res.status == "optimal"
    # cost per unit of constraint: x1: (1/3)/(2/5) = 5/6; x2: (1/7)/(1/2) = 2/7
    assert res.objective == Fraction(2, 7) * Fraction(3, 4)


small_int = st.integers(min_value=-3, max_value=3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_scipy_on_random_instances(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    c = data.draw(st.lists(small_int, min_size=n, max_size=n))
    rows = data.draw(
        st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    b = data.draw(st.lists(small_int, min_size=m, max_size=m))

    res = solve_lp(c, rows, b)

    # scipy works with A_ub x <= b_ub, so negate the >= system
    ref = linprog(
        np.array(c, dtype=float),
        A_ub=-np.array(rows, dtype=float),
        b_ub=-np.array(b, dtype=float),
        bounds=[(0, None)] * n,
        method="highs",
    )
    if res.status == "optimal":
        assert ref.status == 0
        assert abs(float(res.objective) - ref.fun) < 1e-8
    elif res.status == "infeasible":
        assert ref.status == 2
    else:
        if ref.status == 2:
            # highs presolve can fold primal unboundedness into an
            # infeasibility verdict; rerun without it before judging
            ref = linprog(
                np.array(c, dtype=float),
                A_ub=-np.array(rows, dtype=float),
                b_ub=-np.array(b, dtype=float),
                bounds=[(0, None)] * n,
                method="highs",
                options={"presolve": False},
            )
        assert ref.status == 3


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_certificate_self_check_never_trips(data):
    # every solve revalidates optimality exactly; any pivoting bug would raise
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    fr = st.fractions(min_value=-2, max_value=2, max_denominator=5)
    c = data.draw(st.lists(fr, min_size=n, max_size=n))
    rows = data.draw(st.lists(st.lists(fr, min_size=n, max_size=n), min_size=m, max_size=m))
    b = data.draw(st.lists(fr, min_size=m, max_size=m))
    solve_lp(c, rows, b)


def test_row_length_mismatch():
    with pytest.raises(ValueError):
        solve_lp([1, 2], [[1]], [0])
