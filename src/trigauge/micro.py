"""Tight gauge enclosures on supports within the first three rows.

The general bounds in gauge.py can leave a wide gap: the upper
certificate tries a fixed list of splitting strategies and the lower
witnesses are two fixed functionals.  On a support confined to rows
1..3 the relevant part of the body is small enough to squeeze from both
sides until the enclosure passes a tolerance.

Upper side.  Any nonnegative weights nu with sum_r nu_r * a_r >= |x|
over validated unit members a_r certify gauge(x) <= sum(nu); by
solidity the signed x is covered too.  The members are built from
budget-trimmed generator mixtures, one piece per group of a row
partition, and the best cover is an exact linear program.  Each trimmed
piece is certified once per call and reused by every member holding it.

Lower side.  For a cell functional y >= 0 and a rational ceiling H
with <y, a> <= H for every unit member a, a cover of |x| at scale t
gives <y, |x|> <= t * H, hence gauge(x) >= <y, |x|> / H.  A member
restricted to the support cells is still a member, so H only has to
dominate families living on the support rows: the ceiling is the
maximum over partition/rank patterns of per-group bounds, each the
minimum of a hull maximum (budget ignored) and capped Cauchy-Schwarz
routes through the seminorm ball (hull cap ignored).  Every candidate y
is exact: the linear program's duals, duals constant along each row that
equalize the members the cover uses, and |x| itself.  Each distinct
candidate is certified once per call.

Both sides use the safe end of every irrational budget, so the interval
is sound for any input; when ``MAX_ROUNDS`` refinement rounds cannot
close the gap the best enclosure is raised inside a dedicated error
rather than silently widened.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping, Sequence

from .core import DEFAULT_P, LorentzParam, Rational, TriVector, row_norm_sq
from .decompose import DisjointRep, join_disjoint_reps, make_disjoint_rep
from .exact import Interval, pow_enclosure, sqrt_enclosure
from .gauge import (
    GaugeCertificate,
    GaugeInterval,
    GaugeLowerWitness,
    _set_partitions,
    gauge_interval,
)
from .generators import GridSeq, HullCertificate, enumerate_grid_seqs
from .lp import solve_lp

SUPPORT_ROW_CAP = 3
DEFAULT_TOL = Fraction(1, 1000)
MAX_ROUNDS = 3  # refinement rounds before ToleranceUnreachableError
BITS = 96  # enclosure precision of every budget and square root

Cell = tuple[int, int]


class ToleranceUnreachableError(RuntimeError):
    """The refinement rounds ran out before the enclosure met the tolerance.

    Carries a valid (just too wide) interval and the round count, so the
    caller sees the best certified result instead of a widened answer.
    """

    def __init__(self, interval: GaugeInterval, rounds: int, tol: Fraction):
        self.interval = interval
        self.rounds = rounds
        self.tol = tol
        width = interval.hi - interval.lo
        super().__init__(
            f"enclosure width {float(width):.3g} exceeds tolerance "
            f"{float(tol):.3g} after {rounds} refinement rounds"
        )


@lru_cache(maxsize=None)
def _patterns(rows: tuple[int, ...]) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """Every (partition of rows, budget rank per group) combination.

    A unit member restricted to these rows has at most len(rows)
    row-disjoint pieces, and sorting them by seminorm matches each piece
    with a rank; padding with empty pieces shows every member is covered
    by some pattern here.
    """
    out = []
    for groups in _set_partitions(rows):
        for ranks in itertools.permutations(range(1, len(groups) + 1)):
            out.append(tuple(zip(groups, ranks)))
    return tuple(out)


@lru_cache(maxsize=None)
def _gens_on(group: tuple[int, ...]) -> tuple[GridSeq, ...]:
    """Nonzero generator sequences supported within the given rows."""
    keep = set(group)
    return tuple(
        seq
        for seq in enumerate_grid_seqs(max(keep))
        if seq.m and set(seq.active_rows()) <= keep
    )


@lru_cache(maxsize=None)
def _budget(rank: int, num: int, den: int) -> Interval:
    """Enclosure of the rank-th piece budget rank^(-1/p)."""
    if rank == 1:
        return Interval.point(Fraction(1))
    return pow_enclosure(Fraction(1, rank), den, num, BITS)


@lru_cache(maxsize=None)
def _budget_sq(rank: int, num: int, den: int) -> Interval:
    if rank == 1:
        return Interval.point(Fraction(1))
    g = gcd(2 * den, num)
    return pow_enclosure(Fraction(1, rank), 2 * den // g, num // g, BITS)


def _restrict_cells(x: TriVector, cells: frozenset[Cell]) -> TriVector:
    return TriVector({c: v for c, v in x.items() if c in cells})


def _floor_frac(x: Fraction, den: int = 10**12) -> Fraction:
    """Round down to a bounded denominator; keeps trims on the safe side
    without dragging 2^-bits tails through the covering program."""
    return Fraction(int(x * den), den)


@lru_cache(maxsize=None)
def _covered(group: tuple[int, ...], cells: tuple[Cell, ...]) -> tuple[tuple[int, ...], ...]:
    """Positions in cells (increasing) that each generator on the group
    covers, distinct and maximal under inclusion.

    A covered subset never sums to more than a superset of it: the values
    summed are positive (``_ceiling`` keeps only y > 0), so dropping it
    leaves the hull maximum unchanged.
    """
    found = {
        tuple(k for k, (i, j) in enumerate(cells) if i <= len(seq.m) and j <= seq.m[i - 1])
        for seq in _gens_on(group)
    }
    return tuple(sorted(pos for pos in found if not any(set(pos) < set(o) for o in found)))


class _GroupCeiling:
    """The rank-independent part of one row group's ceiling, for fixed y.

    ``hull`` is the largest y mass any generator covers.  Pieces stay
    within [0, 1] per cell, so a row contributes at most its y mass;
    through the seminorm ball it contributes at most beta * i * max(y on
    the row).  ``routes`` holds, for each choice of the rows that take
    the mass route, that mass and the upper root of the other rows'
    squared peaks (None when they vanish), so a rank's bound is the
    minimum over routes of mass + beta * root, with beta the upper end
    of the rank's budget.
    """

    __slots__ = ("hull", "routes", "by_rank")

    def __init__(self, cells, vals, group) -> None:
        zero = Fraction(0)
        hull = zero
        for pos in _covered(group, cells):
            hull = max(hull, sum((vals[k] for k in pos), zero))
        row_mass: dict[int, Fraction] = {}
        row_peak: dict[int, Fraction] = {}
        for (i, _), w in zip(cells, vals):
            row_mass[i] = row_mass.get(i, zero) + w
            row_peak[i] = max(row_peak.get(i, zero), w)
        active = sorted(row_mass)
        routes = []
        for size in range(len(active) + 1):
            for taken in itertools.combinations(active, size):
                rest_sq = sum(
                    ((i * row_peak[i]) ** 2 for i in active if i not in taken),
                    zero,
                )
                mass = sum((row_mass[i] for i in taken), zero)
                routes.append((mass, sqrt_enclosure(rest_sq, BITS).hi if rest_sq else None))
        self.hull = hull
        self.routes = routes
        self.by_rank: dict[int, Fraction] = {}

    def bound(self, rank: int, p: LorentzParam) -> Fraction:
        bound = self.by_rank.get(rank)
        if bound is None:
            beta = _budget(rank, p.num, p.den).hi
            capped = None
            for mass, root in self.routes:
                val = mass if root is None else mass + beta * root
                if capped is None or val < capped:
                    capped = val
            bound = self.by_rank[rank] = min(self.hull, capped)
        return bound


def _ceiling(y: Mapping[Cell, Fraction], rows: tuple[int, ...], p: LorentzParam) -> Fraction:
    """Certified upper bound for <y, a> over unit members on the rows.

    Each row group's hull and capped routes depend on y's positive cells
    in that group, not on the rank, so they are built once per group
    (``_GroupCeiling``) and every (group, rank) slot only applies its
    budget.
    """
    groups: dict[tuple[int, ...], _GroupCeiling | None] = {}
    best = Fraction(0)
    for pattern in _patterns(rows):
        total = Fraction(0)
        for group, rank in pattern:
            if group not in groups:
                cells = tuple(c for c in y if c[0] in group and y[c] > 0)
                vals = tuple(y[c] for c in cells)
                groups[group] = _GroupCeiling(cells, vals, group) if cells else None
            part = groups[group]
            if part is not None:
                total += part.bound(rank, p)
        best = max(best, total)
    return best


def _solve_square(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Unique solution of a small rational linear system, or None."""
    n = len(mat)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _row_uniform_candidates(
    atoms: Sequence[DisjointRep],
    weights: Sequence[Fraction],
    rows: tuple[int, ...],
    cells: tuple[Cell, ...],
) -> list[dict[Cell, Fraction]]:
    """Duals constant along each row, equalizing binding cover members.

    At a covering optimum the used members are tight for the optimal
    dual; one value per row turns that into a square rational system
    over combinations of used members.  Only nonnegative solutions are
    candidates.
    """
    active = [rep for rep, w in zip(atoms, weights) if w > 0]
    k = len(rows)
    if len(active) < k:
        return []
    masses = []
    for rep in active:
        elem = rep.element()
        masses.append(
            [sum(elem.row_entries(i).values(), Fraction(0)) for i in rows]
        )
    out = []
    for combo in itertools.islice(itertools.combinations(range(len(active)), k), 20):
        sol = _solve_square([masses[i] for i in combo], [Fraction(1)] * k)
        if sol is not None and all(u >= 0 for u in sol):
            by_row = dict(zip(rows, sol))
            out.append({c: by_row[c[0]] for c in cells if by_row[c[0]] > 0})
    return out


def _trimmed_pieces(
    group: tuple[int, ...],
    rank: int,
    p: LorentzParam,
    support: frozenset[Cell],
    round_: int,
    made: dict[tuple, object],
) -> list[DisjointRep]:
    """Candidate pieces for one pattern slot, scaled into the rank budget.

    Round 0 scales single generators; later rounds add generator
    mixtures on a weight grid.  Every piece keeps a hull certificate at
    the scale actually used and comes back as a one-piece representative
    from ``make_disjoint_rep``, so it is validated once and the assembled
    member validates exactly.  ``made`` holds what earlier slots and
    rounds of the same call built: under (seqs, weights) the untrimmed
    mixture and its seminorm, under (rank, seqs, weights) the certified
    piece, or None when trimming leaves nothing.
    """
    budget_lo = _budget_sq(rank, p.num, p.den).lo
    pieces = {seq: _restrict_cells(seq.indicator(), support) for seq in _gens_on(group)}
    gens = [seq for seq, piece in pieces.items() if not piece.is_zero()]
    out: list[DisjointRep] = []

    def push(seqs: tuple[GridSeq, ...], weights: tuple[Fraction, ...]) -> None:
        key = (rank, seqs, weights)
        if key not in made:
            if (seqs, weights) not in made:
                mix = TriVector()
                for seq, w in zip(seqs, weights):
                    mix = mix + pieces[seq].scale(w)
                made[seqs, weights] = (mix, row_norm_sq(mix))
            mix, nsq = made[seqs, weights]
            gamma = Fraction(1)
            if nsq > budget_lo:
                gamma = _floor_frac(sqrt_enclosure(budget_lo / nsq, BITS).lo)
                mix = mix.scale(gamma) if gamma > 0 else None
            made[key] = None if mix is None else make_disjoint_rep(
                [mix], p, certs=[HullCertificate(seqs, weights, gamma)]
            )
        if made[key] is not None:
            out.append(made[key])

    for seq in gens:
        push((seq,), (Fraction(1),))
    if round_ >= 1:
        grid = (
            [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]
            if round_ == 1
            else [Fraction(k, 8) for k in range(1, 8)]
        )
        for pair in itertools.combinations(gens, 2):
            for w in grid:
                push(pair, (w, 1 - w))
    if round_ >= 2:
        thirds = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        for triple in itertools.combinations(gens, 3):
            push(triple, thirds)
    return out


def _element_key(x: TriVector) -> tuple[tuple[Cell, int, int], ...]:
    """Hashable identity of a vector in plain ints: hashing Fractions
    computes a modular inverse each time."""
    return tuple((c, v.numerator, v.denominator) for c, v in x.items())


def _pattern_atoms(
    rows: tuple[int, ...],
    p: LorentzParam,
    support: frozenset[Cell],
    round_: int,
    known: set[tuple],
    made: dict[tuple, object],
) -> list[DisjointRep]:
    """Unit members assembled from per-slot pieces, deduplicated by element.

    Elements already in `known` (earlier rounds) are skipped before they
    are joined, since later rounds regenerate the earlier grids.  Each
    member joins certified one-piece representatives, so only its
    row-disjointness and Lorentz test are checked here.
    """
    seen: dict[tuple, DisjointRep] = {}
    slot_cache: dict[tuple, list[DisjointRep]] = {}
    for pattern in _patterns(rows):
        slots = []
        for group, rank in pattern:
            cached = slot_cache.get((group, rank))
            if cached is None:
                cached = _trimmed_pieces(group, rank, p, support, round_, made)
                slot_cache[group, rank] = cached
            if cached:
                slots.append(cached)
        if not slots:
            continue
        for combo in itertools.product(*slots):
            total = TriVector()
            for rep in combo:
                total = total + rep.pieces[0]
            key = _element_key(total)
            if key in seen or key in known:
                continue
            seen[key] = join_disjoint_reps(combo, p)
    return list(seen.values())


def _cover_program(
    atoms: Sequence[DisjointRep], cells: tuple[Cell, ...], target: Mapping[Cell, Fraction]
) -> tuple[Fraction, tuple[Fraction, ...], dict[Cell, Fraction]]:
    """Exact minimal-weight cover of the target by the pooled members."""
    columns = [atom.element() for atom in atoms]
    rows = [[col.entry(*cell) for col in columns] for cell in cells]
    rhs = [target[cell] for cell in cells]
    res = solve_lp([Fraction(1)] * len(atoms), rows, rhs)
    if res.status != "optimal":
        raise AssertionError(f"cover program came back {res.status}")
    duals = {
        cell: max(d, Fraction(0)) for cell, d in zip(cells, res.duals or ())
    }
    return res.objective, res.x, duals


def _dual_witness(
    y: Mapping[Cell, Fraction],
    x_abs: TriVector,
    rows: tuple[int, ...],
    p: LorentzParam,
) -> GaugeLowerWitness | None:
    y = {c: v for c, v in y.items() if v > 0}
    if not y:
        return None
    ceiling = _ceiling(y, rows, p)
    if ceiling <= 0:
        return None
    paired = sum((w * x_abs.entry(*c) for c, w in y.items()), Fraction(0))
    cells = tuple(sorted(y))
    return GaugeLowerWitness(
        paired / ceiling, "dual", (cells, tuple(y[c] for c in cells)), ceiling, p
    )


def tau_micro_oracle(
    x: TriVector,
    p: LorentzParam = DEFAULT_P,
    tol: Rational = DEFAULT_TOL,
) -> GaugeInterval:
    """Enclose the gauge of x to width tol; support must stay in rows 1..3.

    Starts from the general certificates and, while the gap is too wide,
    alternates an exact covering program over a growing pool of unit
    members (upper) with certified dual functionals taken from the
    program's own solution (lower).  Raises ValueError for wide supports
    and ToleranceUnreachableError after ``MAX_ROUNDS`` rounds; the error
    carries the best certified interval.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    active = x.active_rows()
    if active and max(active) > SUPPORT_ROW_CAP:
        raise ValueError(
            f"support reaches row {max(active)}; the enclosure handles rows 1..{SUPPORT_ROW_CAP}"
        )
    best = gauge_interval(x, p)
    if best.hi - best.lo <= tol:
        return best

    x_abs = abs(x)
    support = frozenset(x_abs.support())
    cells = tuple(sorted(support))
    target = {cell: x_abs.entry(*cell) for cell in cells}
    pool: dict[tuple, DisjointRep] = {}

    def add_atom(rep: DisjointRep) -> None:
        pool.setdefault(_element_key(rep.element()), rep)

    for rep in best.upper.reps:
        add_atom(rep)

    lower = best.lower
    upper = best.upper
    rounds = 0
    made: dict[tuple, object] = {}  # trimmed pieces, shared by every round
    tried: set[tuple] = set()  # dual candidates already certified
    for round_ in range(MAX_ROUNDS):
        rounds = round_ + 1
        for rep in _pattern_atoms(active, p, support, round_, set(pool), made):
            add_atom(rep)
        atoms = list(pool.values())
        objective, weights, duals = _cover_program(atoms, cells, target)
        if objective < upper.scale:
            kept = [(w, rep) for w, rep in zip(weights, atoms) if w > 0]
            upper = GaugeCertificate(
                tuple(w / objective for w, _ in kept),
                tuple(rep for _, rep in kept),
                objective,
            )
            upper.validate(x)
        candidates = _row_uniform_candidates(atoms, weights, active, cells)
        candidates += [duals, target]
        for y in candidates:
            # a repeat certifies the same value, which cannot beat lower
            key = tuple(sorted((c, v.numerator, v.denominator) for c, v in y.items() if v > 0))
            if key in tried:
                continue
            tried.add(key)
            witness = _dual_witness(y, x_abs, active, p)
            if witness is not None and witness.value > lower.value:
                witness.validate(x)
                lower = witness
        if upper.scale - lower.value <= tol:
            break
    interval = GaugeInterval(lower, upper)
    if interval.lo > interval.hi:
        raise AssertionError("certified bounds crossed; this is a bug")
    if interval.hi - interval.lo > tol:
        raise ToleranceUnreachableError(interval, rounds, tol)
    return interval
