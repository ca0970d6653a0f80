"""Exact rational linear programming for certificate construction.

Canonical form:

    minimize    c . x
    subject to  A x >= b,  x >= 0

with every coefficient rational.  Callers with <= rows negate them.  The
solver is a revised two-phase simplex: each column of [A | -I | artificials]
is stored once, as integer numerators over its own common denominator,
and the state between pivots is only the exact row transform M = B^-1
(each row as integers over one denominator) and the basic values.  Rows
whose rhs is not positive start with their surplus basic, so M starts as
the diagonal of row signs.  ``solve_lp`` is the one entry: it takes the
structural columns prebuilt, each by ``_unit_column`` from its nonzero
entries (row, numerator, denominator) at unit cost, and the rhs as
Fractions, so a caller that keeps its columns between solves builds
each once.

Pricing needs no Fraction per column: y = c_B M goes over one common
denominator D, and column j (numerators a_j over d_j, cost c_j d_j) may
enter when c_j d_j D < Y . a_j, a comparison of plain ints.  Only the
entering column M a_j is formed, for the ratio test, and a cost becomes
a Fraction only while its column is basic.

The entering choice is Bland's rule (the first eligible column in index
order) and ties in the ratio test break on the smallest basic index, in
both phases.  Bland's rule does not cycle, and it fixes which optimal
vertex is returned: another pricing rule (Dantzig, steepest edge) may
end at another optimal basis with other duals, and callers build their
certificates and dual witnesses from these ones.  No floating point is
ever involved.

A caller that re-solves the same rhs over a growing column list passes
a ``_Trail``.  An optimal solve records there each state at which
Bland's choice was not one of its structural columns; the next solve
prices only the appended columns at those states and restarts from the
first one where it would take an appended column, or from the recorded
optimum.  Appended columns come after the old structural ones and
before every surplus and artificial, so every other choice and every
ratio-test tie falls as before: the resumed solve reaches the vertex,
duals and x of a cold one and skips only the pivots they share.

Duals are the simplex multipliers y at optimality.  Every returned
primal/dual pair is verified to be an exact optimality certificate
(x >= 0, Ax >= b, y >= 0, y'A <= c, y.b = c.x = objective) in integer
arithmetic, so a caller never has to trust the pivoting logic itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence


@dataclass(frozen=True, slots=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None


@dataclass(frozen=True, slots=True)
class _Column:
    """One column as rows[k] -> nums[k] / den, with cost = cost_num / den."""

    rows: tuple[int, ...]
    nums: tuple[int, ...]
    den: int
    cost_num: int

    def dot(self, ints: Sequence[int]) -> int:
        """sum_k ints[rows[k]] * nums[k]: den times the column against ints."""
        return sum(map(mul, map(ints.__getitem__, self.rows), self.nums))


def _unit_column(entries: Iterable[tuple[int, int, int]]) -> _Column:
    """The unit-cost column with entry num / den (in lowest terms, den > 0)
    in row ``row`` for each (row, num, den) of ``entries``."""
    entries = list(entries)
    den = lcm(*(d for _, _, d in entries))
    return _Column(
        tuple(row for row, _, _ in entries),
        tuple(num * (den // d) for _, num, d in entries),
        den,
        den,
    )


_PHASE1, _PIVOT_OUT, _PHASE2, _DONE = range(4)  # the stages of a solve


class _Point(NamedTuple):
    """A state on a recorded pivot path, just before Bland's choice.

    ``row`` is the zero artificial's row at a ``_PIVOT_OUT`` point, and
    ``ints`` over ``den`` are the phase's multipliers at a phase point.
    M, the basic values and the basis are copies; a non-structural basic
    index is stored minus the column total, so that it reads the same in
    a solve with more structural columns.
    """

    stage: int  # _PHASE1, _PIVOT_OUT or _PHASE2
    row: int
    ints: list[int] | None
    den: int
    rows_num: list[list[int]]
    rows_den: list[int]
    rhs: list[Fraction]
    basis: list[int]


class _Trail:
    """What the latest optimal ``solve_lp`` solve recorded for a
    solve of the same rhs over columns that extend its own: that program
    (``columns``, ``rhs``) and, in path order, each point at which Bland's
    choice was not one of its structural columns.  Those are where a
    surplus or artificial column entered, where a phase ended optimal,
    and where a zero artificial left onto a surplus column."""

    __slots__ = ("columns", "rhs", "points")

    def __init__(self) -> None:
        self.columns: tuple[_Column, ...] = ()
        self.rhs: list[Fraction] | None = None
        self.points: list[_Point] = []


def solve_lp(
    columns: Sequence[_Column], rhs0: list[Fraction], trail: _Trail | None = None
) -> LPResult:
    """Minimize c.x subject to A x >= rhs0, x >= 0, with A's columns and c
    given as ``columns``; exact two-phase simplex.

    An optimal solve with a ``trail`` records its path there; any other
    solve leaves the trail as it was.  When the trail holds the same rhs
    and a prefix of ``columns``, the solve resumes it (see the module
    docstring) and returns what a solve without a trail would.
    """
    n = len(columns)
    m = len(rhs0)
    if m == 0:
        if any(col.cost_num < 0 for col in columns):
            return LPResult("unbounded")
        return LPResult("optimal", Fraction(0), (Fraction(0),) * n, ())

    # Columns of rows.x - s + a = b with s, a >= 0: structural, then one
    # surplus -e_i per row, then one artificial e_i per row whose rhs is
    # positive.  Elsewhere the surplus starts basic and the row is negated
    # so the rhs stays nonnegative; M carries that sign from the start.
    art_rows = [i for i in range(m) if rhs0[i] > 0]
    cols = list(columns)
    cols += [_Column((i,), (-1,), 1, 0) for i in range(m)]
    cols += [_Column((i,), (1,), 1, 0) for i in art_rows]
    n_total = len(cols)
    phase1 = [0] * (n + m) + [1] * len(art_rows)
    phase2 = [col.cost_num for col in cols]

    # Row r of M is rows_num[r] / rows_den[r], kept in lowest terms.
    sign = [1 if v > 0 else -1 for v in rhs0]
    rows_num = [[sign[i] if r == i else 0 for i in range(m)] for r in range(m)]
    rows_den = [1] * m
    rhs = [v * s for v, s in zip(rhs0, sign)]
    basis = [n + i for i in range(m)]
    for k, i in enumerate(art_rows):
        basis[i] = n + m + k
    stage, start_row = (_PHASE1 if art_rows else _PHASE2), 0
    points: list[_Point] | None = None  # this solve's path, when recorded
    if trail is not None:
        points = []
        old = len(trail.columns)
        if trail.rhs == rhs0 and old <= n and tuple(columns[:old]) == trail.columns:
            k = _first_taken(trail.points, cols[old:n], phase1[old:n], phase2[old:n])
            if k < len(trail.points):
                at = trail.points[k]
                stage, start_row = at.stage, at.row
            else:
                at = trail.points[-1]  # the recorded optimum
                stage = _DONE
            points = trail.points[:k]
            rows_num[:] = at.rows_num
            rows_den[:] = at.rows_den
            rhs[:] = at.rhs
            basis[:] = [j if j >= 0 else j + n_total for j in at.basis]

    def record(stage: int, row: int, ints: list[int] | None, den: int) -> None:
        # set_row and do_pivot replace rows and values, never edit them in
        # place, so shallow copies keep the state
        points.append(
            _Point(
                stage, row, ints, den, list(rows_num), list(rows_den), list(rhs),
                [j if j < n else j - n_total for j in basis],
            )
        )

    def set_row(r: int, nums: list[int], den: int) -> None:
        g = gcd(den, *nums)
        rows_num[r] = [v // g for v in nums] if g > 1 else nums
        rows_den[r] = den // g

    def entering_column(j: int) -> list[Fraction]:
        col = cols[j]
        return [Fraction(col.dot(nums), den * col.den) for nums, den in zip(rows_num, rows_den)]

    def do_pivot(row: int, w: list[Fraction], col: int) -> None:
        piv = w[row]
        f = piv.denominator if piv > 0 else -piv.denominator
        set_row(row, [v * f for v in rows_num[row]], rows_den[row] * abs(piv.numerator))
        pivot_num, pivot_den = rows_num[row], rows_den[row]
        rhs[row] /= piv
        for r, f in enumerate(w):
            if r != row and f:
                den = lcm(rows_den[r], f.denominator * pivot_den)
                a = den // rows_den[r]
                b = f.numerator * (den // (f.denominator * pivot_den))
                nums = [a * v - b * p if p else a * v for v, p in zip(rows_num[r], pivot_num)]
                set_row(r, nums, den)
                rhs[r] -= f * rhs[row]
        basis[row] = col

    def multipliers(cost_ints: list[int]) -> tuple[list[int], int]:
        """y = c_B M as integer numerators over one denominator; entry i is
        the dual of row i.  Column j costs cost_ints[j] / cols[j].den, put
        in lowest terms only while the column is basic."""
        terms = []  # (numerator, denominator of M's row r times the cost's, r)
        for r, j in enumerate(basis):
            if cost_ints[j]:
                g = gcd(cost_ints[j], cols[j].den)
                terms.append((cost_ints[j] // g, cols[j].den // g * rows_den[r], r))
        den = lcm(*(d for _, d, _ in terms))
        y = [0] * m
        for c, d, r in terms:
            f = c * (den // d)
            y = [a + f * v if v else a for a, v in zip(y, rows_num[r])]
        g = gcd(den, *y)
        return [v // g for v in y], den // g

    def run_simplex(stage: int, cost_ints: list[int], priced: range) -> str:
        basic = set(basis)
        while True:
            ints, den = multipliers(cost_ints)
            enter = -1
            for j in priced:  # Bland: smallest eligible index
                if j not in basic and cost_ints[j] * den < cols[j].dot(ints):
                    enter = j
                    break
            if points is not None and not 0 <= enter < n:
                record(stage, 0, ints, den)
            if enter < 0:
                return "optimal"
            w = entering_column(enter)
            leave = -1
            best: Fraction | None = None
            for r, v in enumerate(w):
                if v > 0:
                    ratio = rhs[r] / v
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                        best = ratio
                        leave = r
            if leave < 0:
                return "unbounded"
            basic.discard(basis[leave])
            basic.add(enter)
            do_pivot(leave, w, enter)

    status = "optimal"
    if stage == _PHASE1:
        status = run_simplex(_PHASE1, phase1, range(n_total))
        assert status == "optimal", "phase 1 is bounded below by zero"
        if any(basis[r] >= n + m and rhs[r] > 0 for r in range(m)):
            status = "infeasible"
    if status == "optimal" and stage <= _PIVOT_OUT:
        # Pivot zero-valued artificials out, each on the first column with
        # a nonzero entry in its row of M [A | -I].  One always exists: M
        # is invertible, so its row is nonzero on some surplus column -e_i.
        for r in range(start_row, m):
            if basis[r] >= n + m:
                enter = next(j for j in range(n + m) if cols[j].dot(rows_num[r]))
                if points is not None and enter >= n:
                    record(_PIVOT_OUT, r, None, 0)
                do_pivot(r, entering_column(enter), enter)
    if status == "optimal" and stage <= _PHASE2:
        status = run_simplex(_PHASE2, phase2, range(n + m))
    if status != "optimal":
        return LPResult(status)
    if trail is not None:
        trail.columns, trail.rhs, trail.points = tuple(columns), list(rhs0), points

    x = [Fraction(0)] * n
    objective = Fraction(0)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = rhs[r]
            if rhs[r]:
                objective += Fraction(cols[j].cost_num, cols[j].den) * rhs[r]
    y, den = multipliers(phase2)
    duals = tuple(Fraction(v, den) for v in y)

    _check_certificate(cols[:n], rhs0, x, duals, objective)
    return LPResult("optimal", objective, tuple(x), duals)


def _first_taken(
    points: list[_Point], appended: list[_Column], phase1: list[int], phase2: list[int]
) -> int:
    """Index of the first trail point at which Bland's rule takes one of the
    appended structural columns, or len(points) when none is ever taken."""
    for k, at in enumerate(points):
        if at.stage == _PIVOT_OUT:
            if any(col.dot(at.rows_num[at.row]) for col in appended):
                return k
        else:
            costs = phase1 if at.stage == _PHASE1 else phase2
            if any(c * at.den < col.dot(at.ints) for col, c in zip(appended, costs)):
                return k
    return len(points)


def _check_certificate(
    cols: list[_Column],
    b: list[Fraction],
    x: list[Fraction],
    y: Sequence[Fraction],
    objective: Fraction,
) -> None:
    """Exact optimality of (x, y) for min c.x, Ax >= b, x >= 0 with A's
    columns and c given as ``cols``; compared in integers throughout."""
    if any(v < 0 for v in x):
        raise AssertionError("primal negativity")
    # Ax over the common denominator Z of the x_j / d_j
    used = [(col, v) for col, v in zip(cols, x) if v]
    z_den = lcm(*(v.denominator * col.den for col, v in used))
    activity = [0] * len(b)
    for col, v in used:
        z = v.numerator * (z_den // (v.denominator * col.den))
        for i, a in zip(col.rows, col.nums):
            activity[i] += z * a
    for i, (act, bi) in enumerate(zip(activity, b)):
        if act * bi.denominator < bi.numerator * z_den:
            raise AssertionError(f"primal constraint {i} violated")
    if any(v < 0 for v in y):
        raise AssertionError("dual negativity")
    y_den = lcm(*(v.denominator for v in y))
    y_ints = [v.numerator * (y_den // v.denominator) for v in y]
    for j, col in enumerate(cols):
        if col.dot(y_ints) > col.cost_num * y_den:
            raise AssertionError(f"dual constraint {j} violated")
    dual_obj = sum((yi * bi for yi, bi in zip(y, b)), Fraction(0))
    primal_obj = sum((Fraction(col.cost_num, col.den) * v for col, v in used), Fraction(0))
    if not (dual_obj == primal_obj == objective):
        raise AssertionError("duality gap")
