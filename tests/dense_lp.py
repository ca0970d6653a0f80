"""Dense programs for ``lp.solve_lp``, which takes structural columns.

min c.x s.t. rows.x >= b, x >= 0 becomes one ``_Column`` per variable:
its nonzero entries over their common denominator, with the cost over
the same denominator.  This is the conversion the solver's dense front
end made, kept here so tests can state programs as matrices and check
the package's own columns against it.
"""

from fractions import Fraction
from math import lcm
from typing import Sequence

from trigauge.exact import Rational
from trigauge.lp import LPResult, _Column, solve_lp


def dense_column(entries: list[tuple[int, Rational]], cost: Rational) -> _Column:
    """The column with entry v in row i for each (i, v) of ``entries``."""
    entries = [(i, Fraction(v)) for i, v in entries]
    cost = Fraction(cost)
    den = lcm(cost.denominator, *(v.denominator for _, v in entries))
    return _Column(
        tuple(i for i, _ in entries),
        tuple(v.numerator * (den // v.denominator) for _, v in entries),
        den,
        cost.numerator * (den // cost.denominator),
    )


def dense_columns(c: Sequence[Rational], rows: Sequence[Sequence[Rational]]) -> list[_Column]:
    """The structural columns of the program with costs c and matrix rows."""
    if any(len(r) != len(c) for r in rows):
        raise ValueError("row length does not match objective length")
    return [
        dense_column([(i, row[j]) for i, row in enumerate(rows) if row[j]], c[j])
        for j in range(len(c))
    ]


def solve_dense(
    c: Sequence[Rational], rows: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> LPResult:
    """Minimize c.x subject to rows.x >= b, x >= 0 with ``solve_lp``."""
    return solve_lp(dense_columns(c, rows), [Fraction(v) for v in b])
