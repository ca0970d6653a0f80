"""Tight gauge enclosures on supports within the first three rows.

The general bounds in gauge.py can leave a wide gap: the upper
certificate tries a fixed list of splitting strategies and the lower
witnesses are two fixed functionals.  On a support confined to rows
1..3 the relevant part of the body is small enough to squeeze from both
sides until the enclosure passes a tolerance.

Upper side.  Nonnegative weights nu with sum_r nu_r * a_r >= |x| over
validated unit members a_r certify gauge(x) <= sum(nu), and the best
cover over a pool of members is an exact linear program, the master.
On rows 1..3 a unit member is a row-disjoint sum along one of the 13
partition/rank patterns of ``_patterns``: one piece per row group, in
the hull of the group's generators at scale 1, with seminorm within
its rank's budget r^(-1/p).  The pool starts from the cheap
certificate's members and the support's seed: one trimmed generator
per slot (group, rank), joined along every pattern.  The seed depends
only on the support and p, so it is built once per process with each
member's integer key and cover column, next to the slot programs'
generators (``_support_atoms``, one entry per support).  A call the
seed closes ends after one cover solve.

Otherwise pricing grows the pool (column generation).  For the
master's duals y every slot solves its exact slot program, max <y, h>
over the hull at scale 1 with sum_i rowmass_i(h) / i within the lower
end of the rank's budget (l2 <= l1 keeps h in the rank's ball), and
every pattern whose slot optima sum above 1 adds its joined slot
pieces as a member.  The master resumes its pivot path (``lp._Trail``)
over the new columns.  Pricing stops when the enclosure is tight, when
no pattern prices above 1, or after ``PRICING_ROUNDS`` rounds.  A piece
gets a ``make_disjoint_rep`` certificate, and a member is joined by
``join_disjoint_reps``, only once a cover weights it; an upper
certificate made of such members runs only its cover check.

Lower side.  For a cell functional y >= 0 and a rational ceiling H
with <y, a> <= H for every unit member a, a cover of |x| at scale t
gives <y, |x|> <= t * H, hence gauge(x) >= <y, |x|> / H.  A member
restricted to the support cells is still a member, so H only has to
dominate families living on the support rows: the ceiling is the
maximum over partition/rank patterns of per-group bounds, each the
minimum of a hull maximum (budget ignored) and capped Cauchy-Schwarz
routes through the seminorm ball (hull cap ignored).  The candidates y
are exact: the master's duals and duals constant along each row that
equalize the members the cover uses.  They are offered after the seed's
cover and after the pricing, and each distinct one is certified once
per call.

Both sides use the safe end of every irrational budget, so the interval
is sound for any input; when pricing cannot close the gap the best
enclosure is raised inside a dedicated error rather than silently
widened, after the refinement's frame has returned, so a caller
holding the error does not hold the pool.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping, Sequence

from .core import DEFAULT_P, LorentzParam, Rational, TriVector
from .decompose import DisjointRep, join_disjoint_reps, make_disjoint_rep
from .exact import Interval, pow_enclosure, sqrt_enclosure
from .gauge import (
    GaugeCertificate,
    GaugeInterval,
    GaugeLowerWitness,
    _dual_ceiling,
    _set_partitions,
    gauge_interval,
)
from .generators import GridSeq, HullCertificate, _covering_tuples
from .lp import _Column, _Trail, _unit_column, solve_lp

SUPPORT_ROW_CAP = 3
# every nonempty support within rows 1..SUPPORT_ROW_CAP
_SUPPORTS = 2 ** (SUPPORT_ROW_CAP * (SUPPORT_ROW_CAP + 1) // 2) - 1
DEFAULT_TOL = Fraction(1, 1000)
PRICING_ROUNDS = 16  # column-generation rounds before ToleranceUnreachableError
BITS = 96  # enclosure precision of every budget and square root

Cell = tuple[int, int]


class ToleranceUnreachableError(RuntimeError):
    """The pricing rounds ran out before the enclosure met the tolerance.

    Carries a valid (just too wide) interval and the pricing round count,
    so the caller sees the best certified result instead of a widened
    answer.
    """

    def __init__(self, interval: GaugeInterval, rounds: int, tol: Fraction):
        self.interval = interval
        self.rounds = rounds
        self.tol = tol
        width = interval.hi - interval.lo
        super().__init__(
            f"enclosure width {float(width):.3g} exceeds tolerance "
            f"{float(tol):.3g} after {rounds} pricing rounds"
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


def _floor_frac(x: Fraction) -> Fraction:
    """Round down to the denominator 10^12; keeps trims on the safe side
    without dragging 2^-bits tails through the covering program."""
    return Fraction(int(x * 10**12), 10**12)


@lru_cache(maxsize=None)
def _covered(cells: tuple[Cell, ...]) -> tuple[tuple[tuple[int, ...], GridSeq], ...]:
    """The position sets in cells (each increasing) that generators on
    their rows cover, maximal under inclusion and in increasing order,
    each with the least generator covering it: the maximal tuples of
    ``_covering_tuples``.

    A covered subset never sums to more than a superset of it when the
    values summed are nonnegative, so dropping it changes no hull
    maximum and no slot optimum.
    """
    found = sorted(_covering_tuples(cells, True), key=lambda t: t[1])
    return tuple((pos, GridSeq.from_counts(counts)) for counts, pos in found)


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

    def __init__(self, cells, vals) -> None:
        zero = Fraction(0)
        hull = zero
        for pos, _ in _covered(cells):
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
                groups[group] = _GroupCeiling(cells, vals) if cells else None
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
    active: Sequence[DisjointRep],
    rows: tuple[int, ...],
    cells: tuple[Cell, ...],
) -> list[dict[Cell, Fraction]]:
    """Duals constant along each row, equalizing binding cover members.

    At a covering optimum the used members (``active``, in pool order)
    are tight for the optimal dual; one value per row turns that into a
    square rational system over combinations of used members.  Only
    nonnegative solutions are candidates.
    """
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


class _Piece:
    """One slot piece: its integer key, its hull certificate and, once a
    member the cover weights holds it, ``rep``, its certified one-piece
    representative (``certify``).

    The key lists (cell, numerator, denominator) of the piece's entries
    in lowest terms, by cell, as ``_element_key`` gives them.  The
    piece's ``TriVector`` is built only for ``make_disjoint_rep``.
    """

    __slots__ = ("key", "cert", "rep")

    def __init__(self, key: tuple[tuple[Cell, int, int], ...], cert: HullCertificate) -> None:
        self.key = key
        self.cert = cert
        self.rep: DisjointRep | None = None

    def certify(self, p: LorentzParam) -> DisjointRep:
        if self.rep is None:
            vector = TriVector({cell: Fraction(num, den) for cell, num, den in self.key})
            self.rep = make_disjoint_rep([vector], p, certs=[self.cert])
        return self.rep


def _seed_pieces(
    rank: int, p: LorentzParam, gens: Sequence[tuple[GridSeq, tuple[Cell, ...]]]
) -> list[_Piece]:
    """The seed pieces of one slot: each generator's restriction to the
    support (``gens``, as its covered cells), scaled into the rank
    budget.

    A restriction's seminorm comes from its integer row counts.  Every
    piece's hull certificate is its one generator at the scale used, and
    a restriction that trimming leaves empty gives no piece.  Only the
    first piece of each trimmed vector is listed: a member holding a
    later one has an earlier twin with the same element.
    """
    budget_lo = _budget_sq(rank, p.num, p.den).lo
    out: dict[tuple, _Piece] = {}
    for seq, cells in gens:
        counts: dict[int, int] = {}
        for i, _ in cells:
            counts[i] = counts.get(i, 0) + 1
        nsq = sum((Fraction(s, i) ** 2 for i, s in counts.items()), Fraction(0))
        gamma = Fraction(1)
        if nsq > budget_lo:
            gamma = _floor_frac(sqrt_enclosure(budget_lo / nsq, BITS).lo)
            if gamma == 0:
                continue
        key = tuple((cell, gamma.numerator, gamma.denominator) for cell in cells)
        if key not in out:
            out[key] = _Piece(key, HullCertificate((seq,), (Fraction(1),), gamma))
    return list(out.values())


def _element_key(x: TriVector) -> tuple[tuple[Cell, int, int], ...]:
    """Hashable identity of a vector in plain ints: hashing Fractions
    computes a modular inverse each time."""
    return tuple((c, v.numerator, v.denominator) for c, v in x.items())


def _merged_key(pieces: Sequence[_Piece]) -> tuple[tuple[Cell, int, int], ...]:
    """The key of a sum of pieces on disjoint rows: their keys, merged."""
    if len(pieces) == 1:
        return pieces[0].key
    return tuple(sorted(itertools.chain.from_iterable(piece.key for piece in pieces)))


def _pattern_atoms(
    rows: tuple[int, ...], p: LorentzParam, cells: tuple[Cell, ...]
) -> tuple[tuple[tuple, tuple[_Piece, ...], _Column], ...]:
    """The seed members on the support cells (sorted): every pattern's
    combinations of one seed piece per nonempty slot, each element once,
    as (key, pieces, cover column) in pattern order.

    Nothing is checked or certified here: ``_joined`` certifies the
    pieces of a member the cover weights and joins them, and the join
    checks what a combination adds.  A pattern puts one piece on each
    group of a row partition, and the rank-r piece's squared seminorm is
    at most the lower end of r^(-2/p), so no combination can fail it.
    """
    position = {cell: k for k, cell in enumerate(cells)}
    gens: dict[tuple[int, ...], list[tuple[GridSeq, tuple[Cell, ...]]]] = {}
    slots: dict[tuple[tuple[int, ...], int], list[_Piece]] = {}
    seen: dict[tuple, tuple[_Piece, ...]] = {}
    for pattern in _patterns(rows):
        lists = []
        for group, rank in pattern:
            if (group, rank) not in slots:
                if group not in gens:
                    own = tuple(c for c in cells if c[0] in group)
                    gens[group] = [
                        (GridSeq.from_counts(counts), tuple(own[k] for k in pos))
                        for counts, pos in _covering_tuples(own, False)
                        if pos
                    ]
                slots[group, rank] = _seed_pieces(rank, p, gens[group])
            if slots[group, rank]:
                lists.append(slots[group, rank])
        if not lists:
            continue
        for pieces in itertools.product(*lists):
            seen.setdefault(_merged_key(pieces), pieces)
    return tuple((key, pieces, _key_column(key, position)) for key, pieces in seen.items())


def _joined(member: DisjointRep | tuple[_Piece, ...], p: LorentzParam) -> DisjointRep:
    """A pooled member as a representative: a member's pieces are
    certified by ``make_disjoint_rep`` and joined by
    ``join_disjoint_reps``, which re-checks them in Fractions."""
    if isinstance(member, DisjointRep):
        return member
    return join_disjoint_reps([piece.certify(p) for piece in member], p, 1)


class _SlotProgram:
    """The slot programs of one row group on one support, at every rank.

    For y >= 0 on the group's support cells and a budget beta, the slot
    program is max <y, h> over 0 <= h <= sum_q mu_q ind_q, sum mu <= 1,
    sum_c h_c / i_c <= beta, with q over the group's generators.  Any
    such h is sum_q mu_q g_q with 0 <= g_q <= ind_q, so the optimum is
    the concave hull at beta of the generators' fractional knapsacks
    f_q(b) = max <y, g> over 0 <= g <= ind_q, sum_c g_c / i_c <= b.  Each
    f_q is concave and piecewise linear, with a vertex after each of the
    generator's cells taken whole in decreasing order of y_c i_c, so the
    hull of all vertices and the origin gives the exact optimum at every
    beta at once, reached by the one or two vertices around beta.  The
    hull is built in integers: values over the common denominator of y,
    budgets in units of 1 / lcm(group).
    """

    __slots__ = ("cells", "unit", "covers", "seqs")

    def __init__(self, group: tuple[int, ...], cells: tuple[Cell, ...]) -> None:
        self.cells = tuple(c for c in cells if c[0] in group)
        self.unit = lcm(*group)
        kept = _covered(self.cells)
        self.covers = tuple(frozenset(pos) for pos, _ in kept)
        self.seqs = tuple(seq for _, seq in kept)

    def optima(
        self, y: Mapping[Cell, Fraction], betas: Sequence[Fraction]
    ) -> list[tuple[Fraction, _Piece | None]]:
        """For each budget, the optimum and an optimal h as a piece whose
        hull certificate holds the optimal mu at scale 1 (None when the
        optimum is 0)."""
        priced = [k for k, c in enumerate(self.cells) if y.get(c, 0) > 0]
        if not priced:
            return [(Fraction(0), None)] * len(betas)
        den = lcm(*(y[self.cells[k]].denominator for k in priced))
        value = [0] * len(self.cells)
        for k in priced:
            v = y[self.cells[k]]
            value[k] = v.numerator * (den // v.denominator)
        priced.sort(key=lambda k: -value[k] * self.cells[k][0])
        # each knapsack vertex as (budget, value, generator, positions taken)
        vertices = []
        for q, covered in enumerate(self.covers):
            budget = total = 0
            taken: tuple[int, ...] = ()
            for k in priced:
                if k in covered:
                    budget += self.unit // self.cells[k][0]
                    total += value[k]
                    taken += (k,)
                    vertices.append((budget, total, q, taken))
        hull = [(0, 0, -1, ())]
        for vertex in sorted(vertices, key=lambda v: (v[0], -v[1])):
            if vertex[1] <= hull[-1][1]:
                continue
            while len(hull) > 1:
                (b0, v0, _, _), (b1, v1, _, _) = hull[-2], hull[-1]
                if (v1 - v0) * (vertex[0] - b0) > (vertex[1] - v0) * (b1 - b0):
                    break
                hull.pop()
            hull.append(vertex)
        out = []
        for beta in betas:
            reach = beta * self.unit
            k = next((k for k, v in enumerate(hull) if v[0] >= reach), len(hull) - 1)
            mix = [(Fraction(1), hull[k])]  # the hull vertices at beta, weighted
            if hull[k][0] > reach:
                lam = (hull[k][0] - reach) / (hull[k][0] - hull[k - 1][0])
                mix = [(lam, hull[k - 1]), (1 - lam, hull[k])]
            h: dict[Cell, Fraction] = {}
            mu: dict[int, Fraction] = {}
            for w, (_, _, q, taken) in mix:
                if q >= 0:
                    mu[q] = mu.get(q, 0) + w
                    for pos in taken:
                        h[self.cells[pos]] = h.get(self.cells[pos], 0) + w
            key = tuple((cell, h[cell].numerator, h[cell].denominator) for cell in sorted(h))
            used = sorted(mu)
            cert = HullCertificate(
                tuple(self.seqs[q] for q in used), tuple(mu[q] for q in used), Fraction(1)
            )
            optimum = sum((w * vertex[1] for w, vertex in mix), Fraction(0)) / den
            out.append((optimum, _Piece(key, cert)))
        return out


class _SupportAtoms:
    """What one support and p give every call, whatever the values on it:
    the seed members as (key, pieces, cover column) and the slot programs
    by row group, built once.  A seed piece's certified ``rep`` stays with
    it, so it is certified once however many calls join it.
    """

    __slots__ = ("rows", "p", "members", "slots")

    def __init__(self, cells: tuple[Cell, ...], p: LorentzParam) -> None:
        self.rows = tuple(sorted({i for i, _ in cells}))
        self.p = p
        self.members = _pattern_atoms(self.rows, p, cells)
        groups = {group for pattern in _patterns(self.rows) for group, _ in pattern}
        self.slots = {group: _SlotProgram(group, cells) for group in sorted(groups)}

    def price(self, y: Mapping[Cell, Fraction]) -> dict[tuple, tuple[_Piece, ...]]:
        """The members of every pattern whose slot optima for y sum above
        1, by key, in pattern order: each pattern's optimal slot pieces,
        joined along it."""
        optima = {}
        for group, program in self.slots.items():
            # a group of s rows takes the ranks 1..n - s + 1 of n rows
            ranks = range(1, len(self.rows) - len(group) + 2)
            betas = [_budget(rank, self.p.num, self.p.den).lo for rank in ranks]
            optima.update(zip(((group, rank) for rank in ranks), program.optima(y, betas)))
        found: dict[tuple, tuple[_Piece, ...]] = {}
        for pattern in _patterns(self.rows):
            parts = [optima[slot] for slot in pattern if optima[slot][1] is not None]
            if sum((value for value, _ in parts), Fraction(0)) > 1:
                pieces = tuple(piece for _, piece in parts)
                found.setdefault(_merged_key(pieces), pieces)
        return found


@lru_cache(maxsize=_SUPPORTS)
def _support_atoms(cells: tuple[Cell, ...], num: int, den: int) -> _SupportAtoms:
    """The process-wide ``_SupportAtoms`` of the support cells (sorted)
    and p = num/den."""
    return _SupportAtoms(cells, LorentzParam(num, den))


def _key_column(key: tuple[tuple[Cell, int, int], ...], position: Mapping[Cell, int]) -> _Column:
    """The cover-program column of the vector with element key ``key``:
    its entries on the support cells (row ``position[cell]``)."""
    return _unit_column((position[c], num, den) for c, num, den in key if c in position)


def _cover_program(
    columns: Sequence[_Column],
    cells: tuple[Cell, ...],
    target: Mapping[Cell, Fraction],
    trail: _Trail,
) -> tuple[Fraction, tuple[Fraction, ...], dict[Cell, Fraction]]:
    """Exact minimal-weight cover of the target by the pooled members,
    given as their columns.  The previous solve's program is a prefix of
    this one, so the solve resumes its ``trail``."""
    res = solve_lp(columns, [target[cell] for cell in cells], trail)
    if res.status != "optimal":
        raise AssertionError(f"cover program came back {res.status}")
    duals = dict(zip(cells, res.duals or ()))
    return res.objective, res.x, duals


def _dual_witness(
    y: Mapping[Cell, Fraction], x_abs: TriVector, p: LorentzParam
) -> GaugeLowerWitness | None:
    """The dual witness of y's positive part, whose ceiling is the one
    ``GaugeLowerWitness.validate`` re-derives (``_dual_ceiling``), so it
    needs no second check."""
    y = {c: v for c, v in y.items() if v > 0}
    if not y:
        return None
    cells = tuple(sorted(y))
    weights = tuple(y[c] for c in cells)
    ceiling = _dual_ceiling(cells, weights, p)
    if ceiling <= 0:
        return None
    paired = sum((w * x_abs.entry(*c) for c, w in y.items()), Fraction(0))
    return GaugeLowerWitness(paired / ceiling, "dual", (cells, weights), ceiling, p)


def _best_lower(
    lower: GaugeLowerWitness,
    candidates: Sequence[Mapping[Cell, Fraction]],
    x: TriVector,
    p: LorentzParam,
    tried: set[tuple],
) -> GaugeLowerWitness:
    """The best of ``lower`` and the dual witnesses of the candidates not
    in ``tried``, which gains their keys: a repeat certifies the same
    value, which cannot beat lower."""
    x_abs = abs(x)
    for y in candidates:
        key = tuple(sorted((c, v.numerator, v.denominator) for c, v in y.items() if v > 0))
        if key in tried:
            continue
        tried.add(key)
        witness = _dual_witness(y, x_abs, p)
        if witness is not None and witness.value > lower.value:
            lower = witness
    return lower


def tau_micro_oracle(
    x: TriVector,
    p: LorentzParam = DEFAULT_P,
    tol: Rational = DEFAULT_TOL,
) -> GaugeInterval:
    """Enclose the gauge of x to width tol; support must stay in rows 1..3.

    Starts from the general certificates and, while the gap is too wide,
    covers |x| by an exact program over the support's seed members, then
    prices new members into it (upper), with certified dual functionals
    taken from the program's own solution (lower).  Raises ValueError
    for wide supports and ToleranceUnreachableError after
    ``PRICING_ROUNDS`` pricing rounds; the error carries the best
    certified interval.
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
    # the error is raised here, after the refinement's frame is gone, so
    # its traceback does not keep the pool and the pieces alive
    interval, rounds = _refine(x, p, tol, best)
    if interval.lo > interval.hi:
        raise AssertionError("certified bounds crossed; this is a bug")
    if interval.hi - interval.lo > tol:
        raise ToleranceUnreachableError(interval, rounds, tol)
    return interval


def _refine(
    x: TriVector, p: LorentzParam, tol: Fraction, best: GaugeInterval
) -> tuple[GaugeInterval, int]:
    """The refinement of ``tau_micro_oracle`` from the cheap interval
    ``best``: the best interval reached and the pricing rounds run."""
    active = x.active_rows()
    cells = x.support()
    position = {cell: k for k, cell in enumerate(cells)}
    target = {cell: abs(x.entry(*cell)) for cell in cells}
    # each pooled member next to its cover-program column, in pool order:
    # the cheap certificate's members, the seed's, then each pricing
    # round's; a member is joined into a representative once the cover
    # weights it
    members: list[DisjointRep | tuple[_Piece, ...]] = []
    columns: list[_Column] = []
    cheap: set[tuple] = set()
    for rep in best.upper.reps:
        key = _element_key(rep.element())
        if key not in cheap:
            cheap.add(key)
            members.append(rep)
            columns.append(_key_column(key, position))
    atoms = _support_atoms(cells, p.num, p.den)
    for key, member, column in atoms.members:
        if key not in cheap:
            members.append(member)
            columns.append(column)

    lower, upper = best.lower, best.upper
    rounds = 0
    tried: set[tuple] = set()  # dual candidates already certified
    trail = _Trail()  # the cover program's pivot path, resumed by pricing
    objective, weights, duals = _cover_program(columns, cells, target, trail)
    for pricing in (False, True):
        if pricing:
            while rounds < PRICING_ROUNDS:
                rounds += 1
                found = atoms.price(duals)
                if not found:
                    break
                for key, member in found.items():
                    members.append(member)
                    columns.append(_key_column(key, position))
                objective, weights, duals = _cover_program(columns, cells, target, trail)
                if objective - lower.value <= tol:
                    break
        used = []  # (weight, representative) of each member the cover uses
        for k, w in enumerate(weights):
            if w > 0:
                rep = members[k] = _joined(members[k], p)
                used.append((w, rep))
        if objective < upper.scale:
            upper = GaugeCertificate(
                tuple(w / objective for w, _ in used),
                tuple(rep for _, rep in used),
                objective,
            )
            upper._check_cover(x)  # make_disjoint_rep or join_disjoint_reps built each member
        if not pricing or upper.scale - lower.value > tol:
            candidates = _row_uniform_candidates([rep for _, rep in used], active, cells)
            lower = _best_lower(lower, candidates + [duals], x, p, tried)
        if upper.scale - lower.value <= tol:
            break
    return GaugeInterval(lower, upper), rounds
