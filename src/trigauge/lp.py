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
the diagonal of row signs.  ``solve_lp`` builds the structural columns
and hands them to ``_solve_columns``; a caller that keeps its columns
between solves calls that directly.

Pricing needs no Fraction per column: y = c_B M goes over one common
denominator D, and column j (numerators a_j over d_j, cost c_j d_j) may
enter when c_j d_j D < Y . a_j, a comparison of plain ints.  Only the
entering column M a_j is formed, for the ratio test.

The entering choice is Bland's rule (the first eligible column in index
order) and ties in the ratio test break on the smallest basic index, in
both phases.  Bland's rule does not cycle, and it fixes which optimal
vertex is returned: another pricing rule (Dantzig, steepest edge) may
end at another optimal basis with other duals, and callers build their
certificates and dual witnesses from these ones.  No floating point is
ever involved.

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
from typing import Sequence

from .exact import Rational


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


def _column(entries: list[tuple[int, Fraction | int]], cost: Fraction | int) -> _Column:
    den = lcm(cost.denominator, *(v.denominator for _, v in entries))
    return _Column(
        tuple(i for i, _ in entries),
        tuple(v.numerator * (den // v.denominator) for _, v in entries),
        den,
        cost.numerator * (den // cost.denominator),
    )


def solve_lp(
    c: Sequence[Rational],
    rows: Sequence[Sequence[Rational]],
    b: Sequence[Rational],
) -> LPResult:
    """Minimize c.x subject to rows.x >= b, x >= 0; exact two-phase simplex."""
    n = len(c)
    m = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("row length does not match objective length")
    data = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in r] for r in rows]
    cols = [
        _column([(i, data[i][j]) for i in range(m) if data[i][j]], Fraction(c[j]))
        for j in range(n)
    ]
    return _solve_columns(cols, [Fraction(v) for v in b])


def _solve_columns(columns: Sequence[_Column], rhs0: list[Fraction]) -> LPResult:
    """``solve_lp`` on prebuilt structural columns (``_column`` form) and
    the rhs as Fractions."""
    n = len(columns)
    m = len(rhs0)
    cost = [Fraction(col.cost_num, col.den) for col in columns]
    if m == 0:
        if any(v < 0 for v in cost):
            return LPResult("unbounded")
        return LPResult("optimal", Fraction(0), tuple(Fraction(0) for _ in cost), ())

    # Columns of rows.x - s + a = b with s, a >= 0: structural, then one
    # surplus -e_i per row, then one artificial e_i per row whose rhs is
    # positive.  Elsewhere the surplus starts basic and the row is negated
    # so the rhs stays nonnegative; M carries that sign from the start.
    art_rows = [i for i in range(m) if rhs0[i] > 0]
    cols = list(columns)
    cols += [_Column((i,), (-1,), 1, 0) for i in range(m)]
    cols += [_Column((i,), (1,), 1, 0) for i in art_rows]
    n_total = len(cols)

    # Row r of M is rows_num[r] / rows_den[r], kept in lowest terms.
    sign = [1 if v > 0 else -1 for v in rhs0]
    rows_num = [[sign[i] if r == i else 0 for i in range(m)] for r in range(m)]
    rows_den = [1] * m
    rhs = [v * s for v, s in zip(rhs0, sign)]
    basis = [n + i for i in range(m)]
    for k, i in enumerate(art_rows):
        basis[i] = n + m + k

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

    def multipliers(costs: list[Rational]) -> tuple[list[int], int]:
        """y = c_B M as integer numerators over one denominator; entry i is
        the dual of row i."""
        terms = [(costs[j], r) for r, j in enumerate(basis) if costs[j]]
        den = lcm(*(c.denominator * rows_den[r] for c, r in terms))
        y = [0] * m
        for c, r in terms:
            f = c.numerator * (den // (c.denominator * rows_den[r]))
            y = [a + f * v if v else a for a, v in zip(y, rows_num[r])]
        g = gcd(den, *y)
        return [v // g for v in y], den // g

    def run_simplex(costs: list[Rational], cost_ints: list[int], priced: range) -> str:
        basic = set(basis)
        while True:
            ints, den = multipliers(costs)
            enter = -1
            for j in priced:  # Bland: smallest eligible index
                if j not in basic and cost_ints[j] * den < cols[j].dot(ints):
                    enter = j
                    break
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

    if art_rows:
        phase1 = [0] * (n + m) + [1] * len(art_rows)
        status = run_simplex(phase1, phase1, range(n_total))
        assert status == "optimal", "phase 1 is bounded below by zero"
        if any(basis[r] >= n + m and rhs[r] > 0 for r in range(m)):
            return LPResult("infeasible")
        # Pivot zero-valued artificials out, each on the first column with
        # a nonzero entry in its row of M [A | -I].  One always exists: M
        # is invertible, so its row is nonzero on some surplus column -e_i.
        for r in range(m):
            if basis[r] >= n + m:
                enter = next(j for j in range(n + m) if cols[j].dot(rows_num[r]))
                do_pivot(r, entering_column(enter), enter)

    phase2 = cost + [Fraction(0)] * (m + len(art_rows))
    status = run_simplex(phase2, [col.cost_num for col in cols], range(n + m))
    if status == "unbounded":
        return LPResult("unbounded")

    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = rhs[r]
    objective = sum((cost[j] * x[j] for j in range(n) if x[j]), Fraction(0))
    y, den = multipliers(phase2)
    duals = tuple(Fraction(v, den) for v in y)

    _check_certificate(cols[:n], rhs0, x, duals, objective)
    return LPResult("optimal", objective, tuple(x), duals)


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
