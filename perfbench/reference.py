"""Reference values computed apart from the program.

These are the benchmark's own yardsticks, so a float may decide them:

* C(p) = sqrt(zeta(2/p)) from mpmath at 50 digits;
* the optimum of the whole-support covering LP, solved by scipy's HiGHS
  over generators the checker enumerates with its own loop.

Imported only after the timed rounds, so neither library counts toward
the workload's peak memory.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import mpmath
import numpy as np
from scipy.optimize import linprog

from checker import generators

Cell = tuple[int, int]

# HiGHS solves in doubles; its optimum may sit this far (relative) below
# the exact one, so the certified bound may exceed it by that much.
LP_REL_SLACK = 1e-6


def c_constant(num: int, den: int) -> mpmath.mpf:
    """C(p) = (sum_n n^(-2/p))^(1/2) = sqrt(zeta(2/p)) for p = num/den."""
    with mpmath.workdps(50):
        return mpmath.sqrt(mpmath.zeta(mpmath.mpf(2 * den) / num))


def at_least(value: Fraction, bound: mpmath.mpf) -> bool:
    """value >= bound, comparing at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.mpf(value.numerator) / value.denominator >= bound


def covering_optimum(target: Mapping[Cell, Fraction]) -> float:
    """min sum w  s.t.  sum_q w_q indicator_q >= |target|, w >= 0 (HiGHS)."""
    cells = sorted(target)
    rows = tuple(sorted({i for i, _ in cells}))
    gens = generators(rows)
    a = np.array([[1.0 if gen[i] >= j else 0.0 for gen in gens] for i, j in cells])
    b = np.array([float(abs(target[c])) for c in cells])
    res = linprog(np.ones(len(gens)), A_ub=-a, b_ub=-b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference covering LP failed: {res.message}")
    return float(res.fun)
