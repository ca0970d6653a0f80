"""Exact simplex against scipy's float LP solver, hand-checked cases, and
the dense tableau simplex it replaced.  Programs are stated as dense
matrices and reach ``solve_lp`` as columns through ``dense_lp``."""

import random
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from trigauge import lp
from trigauge.exact import Rational
from trigauge.lp import (
    LPResult,
    _check_certificate as check_certificate,
    _first_taken,
    _Trail,
    _unit_column,
    solve_lp,
)

from dense_lp import dense_column, dense_columns, solve_dense


def test_single_variable_bound():
    res = solve_dense([1], [[1]], [3])
    assert res.status == "optimal"
    assert res.objective == 3
    assert res.x == (Fraction(3),)
    assert res.duals == (Fraction(1),)


def test_upper_bound_via_negated_row():
    # maximize x s.t. x <= 2  ==  min -x s.t. -x >= -2
    res = solve_dense([-1], [[-1]], [-2])
    assert res.status == "optimal"
    assert res.objective == -2
    assert res.x == (Fraction(2),)


def test_infeasible():
    res = solve_dense([0], [[1], [-1]], [1, 0])  # x >= 1 and x <= 0
    assert res.status == "infeasible"


def test_unbounded():
    assert solve_dense([-1], [[1]], [1]).status == "unbounded"
    assert solve_dense([-1], [], []).status == "unbounded"
    assert solve_dense([2, 3], [], []).objective == 0


def test_two_variable_known_duals():
    # min x1 + 2 x2 s.t. x1 + x2 >= 4, x2 >= 1: optimum at (3, 1), obj 5
    res = solve_dense([1, 2], [[1, 1], [0, 1]], [4, 1])
    assert res.objective == 5
    assert res.x == (Fraction(3), Fraction(1))
    # dual: y1 = 1 (binding), y2 = 1 (c2 - y1 = 1)
    assert res.duals == (Fraction(1), Fraction(1))


def test_redundant_constraint_dropped():
    # second row is the doubled first row; still solvable with valid duals
    res = solve_dense([1, 1], [[1, 1], [2, 2]], [2, 4])
    assert res.status == "optimal"
    assert res.objective == 2


def test_degenerate_vertex():
    # three constraints meeting at the same point; Bland terminates
    res = solve_dense([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1, 2])
    assert res.objective == 2


def test_fractional_data():
    res = solve_dense(
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

    res = solve_dense(c, rows, b)

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
    solve_dense(c, rows, b)


def test_certificate_check_rejects_each_violation():
    # min x1/3 + x2/7 s.t. 2/5 x1 + 1/2 x2 >= 3/4, x1 >= -2/3: optimum
    # x = (0, 3/2), y = (2/7, 0); each perturbation is off by 10^-12 only
    cols = [
        dense_column([(0, Fraction(2, 5)), (1, 1)], Fraction(1, 3)),
        dense_column([(0, Fraction(1, 2))], Fraction(1, 7)),
    ]
    b = [Fraction(3, 4), Fraction(-2, 3)]
    x, y, obj = [Fraction(0), Fraction(3, 2)], (Fraction(2, 7), Fraction(0)), Fraction(3, 14)
    check_certificate(cols, b, x, y, obj)
    tiny = Fraction(1, 10**12)
    cases = [
        ([-tiny, Fraction(3, 2)], y, obj, "primal negativity"),
        ([Fraction(0), Fraction(3, 2) - tiny], y, obj, "primal constraint 0"),
        (x, (Fraction(2, 7), -tiny), obj, "dual negativity"),
        (x, (Fraction(2, 7) + tiny, Fraction(0)), obj, "dual constraint 1"),
        (x, (Fraction(2, 7) - tiny, Fraction(0)), obj, "duality gap"),
        (x, y, obj + tiny, "duality gap"),
    ]
    for bad_x, bad_y, bad_obj, message in cases:
        with pytest.raises(AssertionError, match=message):
            check_certificate(cols, b, bad_x, bad_y, bad_obj)
    assert solve_dense(
        [Fraction(1, 3), Fraction(1, 7)], [[Fraction(2, 5), Fraction(1, 2)], [1, 0]], b
    ) == LPResult("optimal", obj, tuple(x), y)


# -- the tableau reference ------------------------------------------------------


def tableau_reference(
    c: Sequence[Rational],
    rows: Sequence[Sequence[Rational]],
    b: Sequence[Rational],
) -> LPResult:
    """Dense Fraction tableau with solve_lp's pivot rule, updating every
    column on each pivot; solve_lp must return an identical LPResult."""
    n = len(c)
    m = len(rows)
    cost = [Fraction(v) for v in c]
    rhs0 = [Fraction(v) for v in b]
    mat = [[Fraction(v) for v in row] for row in rows]
    if any(len(r) != n for r in mat):
        raise ValueError("row length does not match objective length")
    if m == 0:
        if any(v < 0 for v in cost):
            return LPResult("unbounded")
        return LPResult("optimal", Fraction(0), tuple(Fraction(0) for _ in cost), ())

    # Equality form: mat.x - s + a = b with s, a >= 0.  Artificials only on
    # rows whose rhs is positive; elsewhere the surplus starts basic (its
    # tableau row is negated so the rhs stays nonnegative).
    art_rows = [i for i in range(m) if rhs0[i] > 0]
    n_total = n + m + len(art_rows)

    tab: list[list[Fraction]] = []
    for j in range(n):
        tab.append([mat[i][j] for i in range(m)])
    for i in range(m):
        tab.append([Fraction(-1) if r == i else Fraction(0) for r in range(m)])
    for i in art_rows:
        tab.append([Fraction(1) if r == i else Fraction(0) for r in range(m)])

    rhs = list(rhs0)
    basis: list[int] = [0] * m
    for k, i in enumerate(art_rows):
        basis[i] = n + m + k
    for i in range(m):
        if rhs0[i] <= 0:
            basis[i] = n + i
            for col in tab:
                col[i] = -col[i]
            rhs[i] = -rhs[i]

    def do_pivot(row: int, col: int) -> None:
        pivot_col = tab[col]
        inv = 1 / pivot_col[row]
        factors = list(pivot_col)  # entries before the update
        for colv in tab:
            v = colv[row]
            if v:
                colv[row] = v * inv
        rhs[row] *= inv
        for r in range(len(rhs)):
            if r == row:
                continue
            f = factors[r]
            if f:
                for colv in tab:
                    if colv[row]:
                        colv[r] -= f * colv[row]
                rhs[r] -= f * rhs[row]
        basis[row] = col

    def reduced_costs(costvec: list[Fraction]) -> list[Fraction]:
        cb = [(r, costvec[basis[r]]) for r in range(len(rhs)) if costvec[basis[r]]]
        out = []
        for j in range(n_total):
            col = tab[j]
            z = Fraction(0)
            for r, cbr in cb:
                if col[r]:
                    z += cbr * col[r]
            out.append(costvec[j] - z)
        return out

    def run_simplex(costvec: list[Fraction], banned: set[int]) -> str:
        basic = set(basis)
        while True:
            red = reduced_costs(costvec)
            enter = -1
            for j in range(n_total):
                if j in banned or j in basic:
                    continue
                if red[j] < 0:
                    enter = j
                    break  # Bland: smallest eligible index
            if enter < 0:
                return "optimal"
            col = tab[enter]
            leave = -1
            best: Fraction | None = None
            for r in range(len(rhs)):
                if col[r] > 0:
                    ratio = rhs[r] / col[r]
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                        best = ratio
                        leave = r
            if leave < 0:
                return "unbounded"
            basic.discard(basis[leave])
            basic.add(enter)
            do_pivot(leave, enter)

    if art_rows:
        phase1 = [Fraction(0)] * (n + m) + [Fraction(1)] * len(art_rows)
        status = run_simplex(phase1, banned=set())
        assert status == "optimal", "phase 1 is bounded below by zero"
        if any(basis[r] >= n + m and rhs[r] > 0 for r in range(len(rhs))):
            return LPResult("infeasible")
        # Pivot zero-valued artificials out; a row where no real column can
        # replace one is linearly redundant and gets dropped (dual zero).
        r = 0
        while r < len(rhs):
            if basis[r] >= n + m:
                enter = next((j for j in range(n + m) if tab[j][r] != 0), None)
                if enter is None:
                    for col in tab:
                        del col[r]
                    del rhs[r]
                    del basis[r]
                    continue
                do_pivot(r, enter)
            r += 1

    phase2 = cost + [Fraction(0)] * (m + len(art_rows))
    status = run_simplex(phase2, banned=set(range(n + m, n_total)))
    if status == "unbounded":
        return LPResult("unbounded")

    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = rhs[r]
    objective = sum((cost[j] * x[j] for j in range(n)), Fraction(0))

    # Surplus column of row i is -e_i at cost zero, so its reduced cost is
    # exactly the dual multiplier y_i; dropped redundant rows read dual 0
    # because their surplus column shrank to the zero vector.
    red = reduced_costs(phase2)
    duals = tuple(red[n + i] for i in range(m))

    _check_certificate(cost, mat, rhs0, x, list(duals), objective)
    return LPResult("optimal", objective, tuple(x), duals)


def _check_certificate(
    cost: list[Fraction],
    mat: list[list[Fraction]],
    b: list[Fraction],
    x: list[Fraction],
    y: list[Fraction],
    objective: Fraction,
) -> None:
    n, m = len(cost), len(mat)
    if any(v < 0 for v in x):
        raise AssertionError("primal negativity")
    for i in range(m):
        if sum((mat[i][j] * x[j] for j in range(n)), Fraction(0)) < b[i]:
            raise AssertionError(f"primal constraint {i} violated")
    if any(v < 0 for v in y):
        raise AssertionError("dual negativity")
    for j in range(n):
        if sum((y[i] * mat[i][j] for i in range(m)), Fraction(0)) > cost[j]:
            raise AssertionError(f"dual constraint {j} violated")
    dual_obj = sum((y[i] * b[i] for i in range(m)), Fraction(0))
    primal_obj = sum((cost[j] * x[j] for j in range(n)), Fraction(0))
    if not (dual_obj == primal_obj == objective):
        raise AssertionError("duality gap")


# -- identity with the tableau reference ------------------------------------------

# Few distinct values make ties and alternative optima common; that is where
# the pivot rule decides which vertex, and which duals, come back.
_entry = st.sampled_from([0, 0, 1, 1, 2, -1, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)])
_rhs = st.sampled_from([0, 1, 2, -1, Fraction(1, 2), Fraction(5, 3)])
_cost = st.sampled_from([1, 1, 1, 2, 0, -1, Fraction(1, 2)])


@st.composite
def small_lps(draw):
    """Random LPs; some rows repeat a scaled earlier row with its rhs."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    c = draw(st.lists(_cost, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(_rhs, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(rows) - 1))
        f = draw(st.sampled_from([1, 2, Fraction(1, 3)]))
        rows.append([f * v for v in rows[k]])
        b.append(f * b[k])
    return c, rows, b


@settings(max_examples=300, deadline=None)
@given(small_lps())
@example(([0], [[1], [-1]], [1, 0]))  # infeasible
@example(([-1], [[1]], [1]))  # unbounded
@example(([1, 1], [[1, 1], [2, 2]], [2, 4]))  # duplicate rows
@example(([1], [[-1], [1], [2]], [-1, 1, 2]))  # an artificial left at zero after phase 1
@example(([1, 2], [[-1, 1], [1, 0]], [-2, 0]))  # rows with b <= 0
@example(([1, 2], [[0, Fraction(1, 2)], [1, Fraction(1, 2)]], [1, 1]))  # a ratio tie
@example(([0, 0], [[1, 2]], [Fraction(1, 2)]))  # every feasible point is optimal
@example(([Fraction(1, 3), Fraction(1, 7)], [[Fraction(2, 5), Fraction(1, 2)]], [Fraction(3, 4)]))
def test_matches_tableau_reference(lp):
    c, rows, b = lp
    assert solve_dense(c, rows, b) == tableau_reference(c, rows, b)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_wide_cover_program_matches_tableau_reference(seed):
    """Cover programs shaped like the micro oracle's: 200 or more member
    columns over at most six cells, each a 0/1 pattern or a two-pattern
    mixture trimmed by a factor over 10^12, at unit cost.  ``_unit_column``
    builds each column as the dense conversion does, and the solve
    matches the tableau."""
    rng = random.Random(seed)
    m = rng.randint(2, 6)
    n = rng.randint(200, 240)
    mixes = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 3)]
    columns = []
    for _ in range(n):
        gamma = Fraction(rng.randint(1, 10**12), 10**12) if rng.random() < 0.8 else Fraction(1)
        w = rng.choice(mixes)
        a = [rng.random() < 0.5 for _ in range(m)]
        z = [rng.random() < 0.5 for _ in range(m)]
        columns.append([gamma * (w * a[i] + (1 - w) * z[i]) for i in range(m)])
    rows = [[col[i] for col in columns] for i in range(m)]
    b = [Fraction(rng.randint(1, 16), 8) for _ in range(m)]
    want = tableau_reference([1] * n, rows, b)
    assert solve_dense([1] * n, rows, b) == want
    # the unit-cost builder the package's programs use, on the same program
    built = [
        _unit_column((i, v.numerator, v.denominator) for i, v in enumerate(col) if v)
        for col in columns
    ]
    assert built == dense_columns([1] * n, rows)


# -- resuming a recorded solve ------------------------------------------------------


def count_pivots(solve, *args):
    """solve(*args) and the number of simplex pivots it made, counted as
    calls of the solver's inner ``do_pivot``."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "do_pivot" and code.co_filename == lp.__file__:
            calls += 1

    sys.setprofile(hook)
    try:
        out = solve(*args)
    finally:
        sys.setprofile(None)
    return out, calls


def assert_resumes_like_cold(c, rows, b, cuts):
    """Solving each prefix columns[:cut] on one trail gives, every time,
    what a solve without a trail gives."""
    columns = dense_columns(c, rows)
    rhs = [Fraction(v) for v in b]
    trail = _Trail()
    for cut in cuts:
        assert solve_lp(columns[:cut], rhs, trail) == solve_lp(columns[:cut], rhs)


@st.composite
def growing_lps(draw):
    """An LP as ``small_lps`` draws it, with its columns cut into 1-5
    growing prefixes, the last one whole."""
    c, rows, b = draw(small_lps())
    cuts = draw(st.lists(st.integers(0, len(c)), max_size=4))
    return c, rows, b, sorted(set(cuts) | {len(c)})


# (c, rows, b, cuts): one program per place where a solve of all columns
# can restart on the path a solve of the first cut columns recorded
RESUMES = {
    "no-artificial": ([2, -1], [[0, -1]], [-2], [1, 2]),
    "phase1-surplus-enters": (
        [1, Fraction(1, 2)], [[1, Fraction(1, 2)], [1, -1]], [2, 1], [1, 2]
    ),
    "phase1-end": ([-1, 2], [[-1, 2], [1, 1]], [-1, 1], [1, 2]),
    "zero-artificial-out": (
        [2, -1], [[1, -1], [1, -1], [-1, Fraction(1, 2)]], [1, 1, -1], [1, 2]
    ),
    "phase2-surplus-enters": (
        [1, 2, 1], [[Fraction(1, 2), -1, 1], [Fraction(1, 2), 0, 1]], [1, 1], [2, 3]
    ),
    "phase2-end": ([Fraction(1, 2), 0], [[2, 1]], [2], [1, 2]),
    "no-column-taken": ([1, 1], [[2, 0]], [-1], [1, 2]),
}
# (stage, whether the point is the last of its stage) of each restart; the
# stage is None when no appended column is ever taken
RESUME_KINDS = {
    "no-artificial": (lp._PHASE2, True),
    "phase1-surplus-enters": (lp._PHASE1, False),
    "phase1-end": (lp._PHASE1, True),
    "zero-artificial-out": (lp._PIVOT_OUT, False),
    "phase2-surplus-enters": (lp._PHASE2, False),
    "phase2-end": (lp._PHASE2, True),
    "no-column-taken": (None, True),
}


@settings(max_examples=300, deadline=None)
@given(growing_lps())
@example(RESUMES["no-artificial"])
@example(RESUMES["phase1-surplus-enters"])
@example(RESUMES["zero-artificial-out"])
@example(RESUMES["phase2-surplus-enters"])
@example(([1, 1], [[-1, 1]], [1], [1, 2]))  # infeasible, then feasible
@example(([1, -1, 1], [[1, 1, 1]], [1], [1, 2, 3]))  # optimal, unbounded, unbounded
@example(([1, -1], [[1, 0], [-1, 1]], [1, -1], [1, 2]))  # unbounded from phase 1's end
@example(([1, 0], [[2, 1], [1, 1]], [2, 1], [1, 2]))  # a ratio tie before the restart
@example(([1, 2], [[1, 1], [Fraction(1, 2), 1]], [1, 1], [1, 2]))  # a ratio tie after it
@example(([1, 1, 1], [[1, 1, 2], [2, 2, 4]], [1, 2], [1, 2, 3]))  # duplicate rows
def test_resumed_solve_matches_cold(lp_cuts):
    assert_resumes_like_cold(*lp_cuts)


@pytest.mark.parametrize("name", list(RESUMES))
def test_resume_restarts_where_bland_takes_an_appended_column(name):
    c, rows, b, (cut, _) = RESUMES[name]
    columns = dense_columns(c, rows)
    rhs = [Fraction(v) for v in b]
    trail = _Trail()
    assert solve_lp(columns[:cut], rhs, trail).status == "optimal"
    points = trail.points
    k = _first_taken(
        points,
        columns[cut:],
        [0] * (len(c) - cut),
        [col.cost_num for col in columns[cut:]],
    )
    if k == len(points):
        kind = (None, True)
    else:
        ends = k + 1 == len(points) or points[k + 1].stage != points[k].stage
        kind = (points[k].stage, ends)
    assert kind == RESUME_KINDS[name]
    if name == "no-artificial":
        assert all(point.stage == lp._PHASE2 for point in points)
    assert_resumes_like_cold(*RESUMES[name])


def test_resume_with_no_eligible_column_makes_no_pivot():
    # the appended columns cost more than the recorded optimum's duals pay
    # for them, so the resumed solve returns the recorded vertex as it is
    c = [1, 1, 3, 5]
    rows = [[1, 0, 1, 1], [0, 1, 1, 2]]
    b = [1, 2]
    columns = dense_columns(c, rows)
    rhs = [Fraction(v) for v in b]
    trail = _Trail()
    first, cold_pivots = count_pivots(solve_lp, columns[:2], rhs, trail)
    assert first.status == "optimal" and cold_pivots > 0
    recorded = list(trail.points)
    resumed, pivots = count_pivots(solve_lp, columns, rhs, trail)
    assert pivots == 0
    assert resumed == solve_lp(columns, rhs)
    assert resumed.x == first.x + (Fraction(0), Fraction(0))
    assert trail.points == recorded


def test_trail_for_another_program_is_not_resumed():
    # another rhs, or columns that do not extend the recorded ones, solve
    # from the start and record their own path
    columns = dense_columns([1, 2, 1], [[1, 1, 0], [0, 1, 1]])
    rhs = [Fraction(1), Fraction(1)]
    trail = _Trail()
    solve_lp(columns[:2], rhs, trail)
    other_rhs = [Fraction(2), Fraction(1)]
    cold, cold_pivots = count_pivots(solve_lp, columns, other_rhs)
    assert count_pivots(solve_lp, columns, other_rhs, trail) == (cold, cold_pivots)
    assert trail.rhs == other_rhs
    reordered = [columns[1], columns[0], columns[2]]
    cold, cold_pivots = count_pivots(solve_lp, reordered, other_rhs)
    assert count_pivots(solve_lp, reordered, other_rhs, trail) == (cold, cold_pivots)
