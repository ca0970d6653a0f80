"""Exact rational linear programming for certificate construction.

Canonical form:

    minimize    c . x
    subject to  A x >= b,  x >= 0

with every coefficient a Fraction.  Callers with <= rows negate them.  A
dense two-phase simplex with Bland's rule on both the entering and the
leaving choice (anti-cycling, deterministic) is entirely adequate at the
problem sizes appearing in this package (tens of rows and columns); no
floating point is ever involved.

Duals come from the simplex multipliers at optimality: the reduced cost of
the surplus column of row i equals the dual y_i of that row.  Every
returned primal/dual pair is verified to be an exact optimality
certificate (x feasible, y >= 0, y'A <= c, y.b = c.x), so a caller never
has to trust the pivoting logic itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import Rational


@dataclass(frozen=True, slots=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None


def solve_lp(
    c: Sequence[Rational],
    rows: Sequence[Sequence[Rational]],
    b: Sequence[Rational],
) -> LPResult:
    """Minimize c.x subject to rows.x >= b, x >= 0; exact two-phase simplex."""
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
