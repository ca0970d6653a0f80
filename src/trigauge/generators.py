"""Generator sequences and the solid convex hull they span.

A ``GridSeq`` is a sequence of integer cell counts m_1, m_2, ... with
0 <= m_i <= i and sum (m_i / i)^2 <= 1.  Its indicator vector puts a one
in the first m_i cells of row i.  The unit body U studied here is the
solid convex hull of all indicator vectors: x lies in scale * U exactly
when |x| is dominated componentwise by scale times a subconvex
combination of indicators.

Membership and the minimal covering scale are decided by exact covering
LPs over the maximal record-pruned generators of x.  Restricting to the
rows where x lives loses nothing: dropping rows from a valid sequence
keeps it valid and keeps the domination on those rows.  Coverage of row
i is non-increasing in j, so only the record cells bind: those where
|x_ij| exceeds every value to their right.  Covering a record cell at
least |x_ij| covers every cell to its left that is no larger, so the
other cells' constraints are implied and dropped.  On row i only the
counts 0 and the record columns of x then matter: lowering m_i to the
largest such value at most m_i covers the same record cells at no
greater budget, and among those tuples a maximal one (no row can step up
to its next record column within the budget) dominates every other.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .core import TriVector, _weighted_sum
from .lp import _unit_column, solve_lp


@dataclass(frozen=True, slots=True)
class GridSeq:
    """Cell counts per row, trailing zeros trimmed; empty tuple is the zero sequence."""

    m: tuple[int, ...]

    def __post_init__(self) -> None:
        m = tuple(self.m)
        while m and m[-1] == 0:
            m = m[:-1]
        object.__setattr__(self, "m", m)
        budget = Fraction(0)
        for i, count in enumerate(m, start=1):
            if not isinstance(count, int) or not 0 <= count <= i:
                raise ValueError(f"count {count} invalid for row {i}")
            if count:
                budget += Fraction(count, i) ** 2
        if budget > 1:
            raise ValueError(f"squared coefficient sum {budget} exceeds 1")

    def active_rows(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.m, start=1) if c)

    def indicator(self) -> TriVector:
        entries = {}
        for i, count in enumerate(self.m, start=1):
            for j in range(1, count + 1):
                entries[(i, j)] = Fraction(1)
        return TriVector(entries)

    def to_line(self) -> str:
        return "b: " + " ".join(str(c) for c in self.m) if self.m else "b:"

    @classmethod
    def from_line(cls, line: str) -> "GridSeq":
        body = line.strip()
        if not body.startswith("b:"):
            raise ValueError(f"sequence line must start with 'b:', got {line!r}")
        parts = body[2:].split()
        return cls(tuple(int(p) for p in parts))

    def __len__(self) -> int:
        return len(self.m)


ZERO_SEQ = GridSeq(())


def _rows_key(rows) -> tuple[int, ...]:
    if isinstance(rows, int):
        return tuple(range(1, rows + 1))
    out = tuple(sorted(set(rows)))
    if out and out[0] < 1:
        raise ValueError("rows must be positive")
    return out


_MAX_CANDIDATES = 200_000  # sequences or count tuples walked before a search gives up


class EnumerationBudgetError(RuntimeError):
    """A generator search walked more than ``_MAX_CANDIDATES`` candidates."""


def _count_tuples(
    support: dict[int, Iterable[int]], maximal: bool = True
) -> list[tuple[int, ...]]:
    """Count tuples over ``sorted(support)`` with values in {0} | S_i.

    Walks every tuple within the budget sum (m_i / i)^2 <= 1 (integer
    arithmetic over the lcm of the i^2) in lexicographic order.  With
    ``maximal`` it keeps only those where no row can step up to its next
    support column.  Raises EnumerationBudgetError past ``_MAX_CANDIDATES``
    walked tuples.
    """
    rows = sorted(support)
    unit = lcm(*(i * i for i in rows))
    prices = [unit // (i * i) for i in rows]
    options = [(0, *sorted(support[i])) for i in rows]
    picks = [0] * len(rows)  # position of each row's count in its options
    found: list[tuple[int, ...]] = []
    walked = 0

    def walk(k: int, left: int) -> None:
        nonlocal walked
        if k == len(rows):
            walked += 1
            if walked > _MAX_CANDIDATES:
                raise EnumerationBudgetError(f"generator enumeration exceeds {_MAX_CANDIDATES}")
            if maximal:
                for opts, price, pos in zip(options, prices, picks):
                    if pos + 1 < len(opts) and (
                        (opts[pos + 1] ** 2 - opts[pos] ** 2) * price <= left
                    ):
                        return  # this row can still step up
            found.append(tuple(opts[pos] for opts, pos in zip(options, picks)))
            return
        for pos, m in enumerate(options[k]):
            cost = m * m * prices[k]
            if cost > left:
                break
            picks[k] = pos
            walk(k + 1, left - cost)
        picks[k] = 0

    try:
        walk(0, unit)
    finally:
        del walk  # the closure refers to itself; dropping it frees the cycle
    return found


def _seq_on_rows(rows: Sequence[int], counts: tuple[int, ...]) -> GridSeq:
    """The sequence with counts[k] cells on row rows[k] and none elsewhere."""
    padded = [0] * (rows[-1] if rows else 0)
    for i, m in zip(rows, counts):
        padded[i - 1] = m
    return GridSeq(tuple(padded))


@lru_cache(maxsize=256)
def _enumerate_cached(rows: tuple[int, ...]) -> tuple[GridSeq, ...]:
    tuples = _count_tuples({i: range(1, i + 1) for i in rows}, maximal=False)
    return tuple(_seq_on_rows(rows, t) for t in tuples)


def enumerate_grid_seqs(rows) -> tuple[GridSeq, ...]:
    """All valid sequences supported on the given rows (int means rows 1..n).

    Includes the zero sequence.  Ordered lexicographically by padded
    counts, so the output is deterministic.  Raises EnumerationBudgetError
    past ``_MAX_CANDIDATES`` sequences; callers with large rows catch that and
    fall back to cheaper bounds.
    """
    return _enumerate_cached(_rows_key(rows))


@dataclass(frozen=True, slots=True)
class HullCertificate:
    """Witness that |x| <= scale * sum w_q * indicator(seq_q), sum w <= 1."""

    seqs: tuple[GridSeq, ...]
    weights: tuple[Fraction, ...]
    scale: Fraction

    def combination(self) -> TriVector:
        return _weighted_sum(
            (seq.indicator(), w * self.scale) for seq, w in zip(self.seqs, self.weights)
        )

    def validate(self, x: TriVector) -> None:
        """Check sum w <= 1 and scale * (sum of w_q with m_q,i >= j) >= |x_ij|.

        Everything is compared in integers: the weights as W_q = w_q * D
        over their common denominator D, and each cell as
        scale.num * reach * v.den >= |v.num| * scale.den * D.
        """
        if len(self.seqs) != len(self.weights):
            raise AssertionError("length mismatch")
        den = lcm(*(w.denominator for w in self.weights))
        ints = [w.numerator * (den // w.denominator) for w in self.weights]
        if any(w < 0 for w in ints):
            raise AssertionError("negative weight")
        if sum(ints) > den:
            raise AssertionError("weights exceed 1")
        if self.scale < 0:
            raise AssertionError("negative scale")
        cover_den = self.scale.denominator * den
        row = 0
        for (i, j), v in x.items():
            if i != row:
                row = i
                counts, reach = self._row_steps(i, ints)
            k = bisect_left(counts, j)
            if k == len(counts) or reach[k] * v.denominator < abs(v.numerator) * cover_den:
                raise AssertionError("combination does not dominate |x|")

    def _row_steps(self, i: int, ints: list[int]) -> tuple[list[int], list[int]]:
        """Coverage on row i as a step function of the column.

        Returns the distinct nonzero counts c_1 < c_2 < ... of the sequences
        on row i and, for each c_k, scale.num times the integer weight of
        the sequences whose count is at least c_k; that covers columns
        c_(k-1) < j <= c_k, and nothing covers columns past the last count.
        """
        at: dict[int, int] = {}
        for seq, w in zip(self.seqs, ints):
            if len(seq.m) >= i and seq.m[i - 1] and w:
                at[seq.m[i - 1]] = at.get(seq.m[i - 1], 0) + w
        counts = sorted(at)
        reach = []
        total = 0
        for c in reversed(counts):
            total += at[c]
            reach.append(self.scale.numerator * total)
        reach.reverse()
        return counts, reach


def hull_min_scale(x: TriVector) -> tuple[Fraction, HullCertificate]:
    """Exact minimal scale with x in scale * U, plus the covering witness.

    Solves min sum W_q  s.t.  sum W_q indicator_q >= |x| on the record
    cells of x, over the maximal generators pruned to its record columns
    (see the module docstring); the optimum is the gauge of U at |x| (the
    witness weights are W / optimum).  Every dropped generator's column is
    dominated by a kept one, so the nonnegative dual stays feasible for
    it and the optimum is the one over all generators.  On one row that
    program needs no LP: its one maximal tuple is the row's last cell,
    which covers every record cell, so the optimum is the row sup, at
    weight 1 on that tuple.  Raises EnumerationBudgetError past
    ``_MAX_CANDIDATES`` walked tuples.
    """
    if x.is_zero():
        return Fraction(0), HullCertificate((), (), Fraction(0))
    # record cells, found right to left along each row
    cells = []
    peak: dict[int, Fraction] = {}
    for (i, j), v in reversed(list(x.items())):
        v = abs(v)
        if v > peak.get(i, 0):
            peak[i] = v
            cells.append(((i, j), v))
    cells.reverse()
    if len(peak) == 1:
        (i, j), _ = cells[-1]  # the row's last cell
        cert = HullCertificate((_seq_on_rows((i,), (j,)),), (Fraction(1),), peak[i])
        cert.validate(x)
        return peak[i], cert
    support: dict[int, set[int]] = {}
    for (i, j), _ in cells:
        support.setdefault(i, set()).add(j)
    rows = sorted(support)
    tuples = _count_tuples(support)
    position = {i: k for k, i in enumerate(rows)}
    columns = [
        _unit_column((k, 1, 1) for k, ((i, j), _) in enumerate(cells) if t[position[i]] >= j)
        for t in tuples
    ]
    res = solve_lp(columns, [v for _, v in cells])
    if res.status != "optimal":
        raise ValueError("target not coverable on its rows")
    lam = res.objective
    seqs, weights = [], []
    for t, w in zip(tuples, res.x):
        if w:
            seqs.append(_seq_on_rows(rows, t))
            weights.append(w / lam)
    cert = HullCertificate(tuple(seqs), tuple(weights), lam)
    cert.validate(x)
    return lam, cert


def indicator_sum(seqs: Iterable[GridSeq], divisor: int) -> TriVector:
    """(1/divisor) sum indicator(seq_q), counted per cell in integers."""
    tops: dict[int, dict[int, int]] = {}  # row -> count -> sequences with it
    for s in seqs:
        for i, count in enumerate(s.m, start=1):
            if count:
                row = tops.setdefault(i, {})
                row[count] = row.get(count, 0) + 1
    entries: dict[tuple[int, int], Fraction] = {}
    for i, row in tops.items():
        covering = 0
        for j in range(max(row), 0, -1):
            covering += row.get(j, 0)
            entries[(i, j)] = Fraction(covering, divisor)
    return TriVector(entries)


def average_indicators(seqs: Sequence[GridSeq]) -> TriVector:
    """Exact average (1/M) sum indicator(seq_q)."""
    if not seqs:
        raise ValueError("empty family")
    return indicator_sum(seqs, len(seqs))


def disjointness_degree(seqs: Sequence[GridSeq]) -> int:
    """Largest number of sequences sharing one row; 0 for an empty family.

    Equals len(seqs) * sup_norm(average_indicators(seqs)) because cell
    (i, 1) is hit by every sequence active on row i.
    """
    rows: dict[int, int] = {}
    for s in seqs:
        for i in s.active_rows():
            rows[i] = rows.get(i, 0) + 1
    return max(rows.values(), default=0)


def parse_seq_file(text: str) -> list[GridSeq]:
    """One sequence per 'b:' line; blank lines and '#' comments ignored."""
    out = []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            out.append(GridSeq.from_line(ln))
    return out


def seq_file_text(seqs: Sequence[GridSeq]) -> str:
    return "\n".join(s.to_line() for s in seqs) + "\n"

