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
partition, and the best cover is an exact linear program.  The members
do not depend on the values of x, only on its support and p, so each
support's members are built once per process (``_support_atoms``, one
entry for each of the 63 supports within rows 1..3) and the member
pipeline builds no Fraction per member.  A trimmed piece is built once
(keyed by integer weight codes) from integer code counts and row sums,
with its row mask, its Lorentz capacity and its part of a member's
cover-program column, so a member's join test is an integer one; a
member is keyed by merging its pieces' integer keys, and a combination
of pieces the previous round already listed is not re-examined.  Each
round's new members are built the first time a call reaches that
round, after every earlier round, and a piece is certified by
``make_disjoint_rep`` once, when the cover first weights a member
holding it.

Once per call: the pool, seeded with the cheap certificate's members;
each pooled member's LP column, merged from its pieces' parts; the
cover program's pivot path; the dual candidates; and every check.  A
round's stored members are new to every earlier round, so the call adds
all of them but those the cheap certificate already holds, which gives
the pool order of a pool built afresh in each call; the cover programs,
their optimal vertices and duals, and so every certificate, are the
same.  Each round's program extends the previous one by the new
members' columns, so its exact solve resumes the previous round's pivot
path (``lp._Trail``) and pays only for the new columns.  Only members
the cover weights are joined, and ``join_disjoint_reps`` re-checks
their pieces in Fractions in every call.

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
rather than silently widened.  The error is raised after the rounds'
frame has returned, so a caller holding it does not hold their pool.
"""

from __future__ import annotations

import itertools
import threading
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Container, Mapping, Sequence

from .core import DEFAULT_P, LorentzParam, Rational, TriVector
from .decompose import DisjointRep, join_disjoint_reps, make_disjoint_rep
from .exact import Interval, iroot, pow_enclosure, sqrt_enclosure
from .gauge import (
    GaugeCertificate,
    GaugeInterval,
    GaugeLowerWitness,
    _set_partitions,
    gauge_interval,
)
from .generators import GridSeq, HullCertificate, enumerate_grid_seqs
from .lp import _Column, _solve_columns, _Trail

SUPPORT_ROW_CAP = 3
# every nonempty support within rows 1..SUPPORT_ROW_CAP
_SUPPORTS = 2 ** (SUPPORT_ROW_CAP * (SUPPORT_ROW_CAP + 1) // 2) - 1
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


_GRID = 24  # mixture weights are codes / _GRID: eighths and thirds
_FULL_GRID_ROUND = 2  # from this round on, every round trims the same mixtures


class _Piece:
    """One trimmed mixture: its integer key, its hull certificate, its rows
    as bits (``mask``), ``capacity``, the largest rank at which its
    seminorm passes the Lorentz test at bound 1 (``_capacity``), and
    ``column``, its part of a member's cover-program column
    (``_key_column``).

    The key lists (cell, numerator, denominator) of the piece's entries
    in lowest terms, by cell, as ``_element_key`` gives them.  The
    piece's ``TriVector`` is built only for ``make_disjoint_rep``, when a
    member the cover weights is joined (``certify``), which sets ``rep``,
    the certified one-piece representative.
    """

    __slots__ = ("key", "cert", "mask", "capacity", "column", "rep")

    def __init__(
        self,
        key: tuple[tuple[Cell, int, int], ...],
        cert: HullCertificate,
        mask: int,
        capacity: int,
        column: _Column,
    ) -> None:
        self.key = key
        self.cert = cert
        self.mask = mask
        self.capacity = capacity
        self.column = column
        self.rep: DisjointRep | None = None

    def certify(self, p: LorentzParam) -> DisjointRep:
        if self.rep is None:
            vector = TriVector({cell: Fraction(num, den) for cell, num, den in self.key})
            self.rep = make_disjoint_rep([vector], p, certs=[self.cert])
        return self.rep


def _capacity(norm_sq: Fraction, p: LorentzParam) -> int:
    """The largest rank n with norm_sq^num n^(2 den) <= 1, for norm_sq > 0.

    That is the rank up to which the seminorm passes the Lorentz test at
    bound 1, and it does not increase as the seminorm grows.  So sorted
    capacities c_1 <= c_2 <= ... satisfy c_n >= n exactly when the
    seminorms pass ``lorentz_le_sq(norms, 1, p)``.
    """
    return iroot(norm_sq.denominator**p.num // norm_sq.numerator**p.num, 2 * p.den)


def _check_join(pieces: Sequence[_Piece]) -> None:
    """What ``join_disjoint_reps`` checks of the pieces, in ints:
    disjoint row masks, then capacities that pass at every rank; raises
    its ``ValueError``s."""
    rows = 0
    for piece in pieces:
        if rows & piece.mask:
            raise ValueError("pieces share a row")
        rows |= piece.mask
    for n, capacity in enumerate(sorted(piece.capacity for piece in pieces), start=1):
        if capacity < n:
            raise ValueError("piece seminorms break the Lorentz bound")


def _mix_norm_sq(counts: Mapping[Cell, int]) -> Fraction:
    """``row_norm_sq`` of the mixture counts / _GRID, from integer row sums."""
    sums: dict[int, int] = {}
    for (i, _), count in counts.items():
        sums[i] = sums.get(i, 0) + count
    den = lcm(*sums)
    return Fraction(sum((s * (den // i)) ** 2 for i, s in sums.items()), (_GRID * den) ** 2)


def _piece_key(counts: Mapping[Cell, int], gamma: Fraction) -> tuple[tuple[Cell, int, int], ...]:
    """``_element_key`` of the mixture counts / _GRID scaled by gamma."""
    num, den = gamma.numerator, _GRID * gamma.denominator
    key = []
    for cell in sorted(counts):
        n = counts[cell] * num
        g = gcd(n, den)
        key.append((cell, n // g, den // g))
    return tuple(key)


@lru_cache(maxsize=None)
def _weights(codes: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The mixture weights codes / _GRID, one tuple per code tuple."""
    return tuple(Fraction(c, _GRID) for c in codes)


class _PieceStore:
    """What one support's rounds build once and every later round reuses.

    ``gens`` maps a row group to its generators' nonzero restrictions to
    the support (as cell tuples); ``mixes`` maps (seqs, codes) to the
    untrimmed mixture's integer code count per cell, its seminorm and its
    rows as bits;
    ``pieces`` maps (rank, seqs, codes) to the trimmed piece, or None
    when trimming leaves nothing; ``listed`` maps a slot (group, rank) to
    the pieces it listed in the latest round.
    """

    __slots__ = ("gens", "mixes", "pieces", "listed")

    def __init__(self) -> None:
        self.gens: dict[tuple[int, ...], list[tuple[GridSeq, tuple[Cell, ...]]]] = {}
        self.mixes: dict[tuple, tuple[dict[Cell, int], Fraction, int]] = {}
        self.pieces: dict[tuple, _Piece | None] = {}
        self.listed: dict[tuple[tuple[int, ...], int], set[_Piece]] = {}


def _trimmed_pieces(
    group: tuple[int, ...],
    rank: int,
    p: LorentzParam,
    support: frozenset[Cell],
    round_: int,
    store: _PieceStore,
) -> list[_Piece]:
    """Candidate pieces for one pattern slot, scaled into the rank budget.

    Round 0 scales single generators; later rounds add generator
    mixtures on a weight grid.  A mixture is its integer code count per
    cell, and its seminorm comes from integer row sums.  Every piece
    keeps a hull certificate at the scale actually used, its rows as bits
    and its capacity, from the mixture's seminorm times the squared
    scale (the seminorm is homogeneous of degree 2).  Only the first
    piece of each trimmed vector is listed: a member holding a later one
    has an earlier twin with the same element.  Mixtures and pieces come
    from ``store`` when an earlier slot or round built them.
    """
    budget_lo = _budget_sq(rank, p.num, p.den).lo
    gens = store.gens.get(group)
    if gens is None:
        gens = store.gens[group] = [
            (seq, piece.support())
            for seq in _gens_on(group)
            if not (piece := _restrict_cells(seq.indicator(), support)).is_zero()
        ]
    cells_of = dict(gens)
    position = {cell: k for k, cell in enumerate(sorted(support))}
    out: list[_Piece] = []
    vectors: set[tuple] = set()  # keys of the listed pieces

    def push(seqs: tuple[GridSeq, ...], codes: tuple[int, ...]) -> None:
        key = (rank, seqs, codes)
        if key not in store.pieces:
            if (seqs, codes) not in store.mixes:
                counts: dict[Cell, int] = {}
                for seq, code in zip(seqs, codes):
                    for cell in cells_of[seq]:
                        counts[cell] = counts.get(cell, 0) + code
                mask = sum(1 << i for i in {i for i, _ in counts})
                store.mixes[seqs, codes] = (counts, _mix_norm_sq(counts), mask)
            counts, nsq, mask = store.mixes[seqs, codes]
            gamma = Fraction(1)
            if nsq > budget_lo:
                gamma = _floor_frac(sqrt_enclosure(budget_lo / nsq, BITS).lo)
            if gamma == 0:
                store.pieces[key] = None
            else:
                piece_key = _piece_key(counts, gamma)
                store.pieces[key] = _Piece(
                    piece_key,
                    HullCertificate(seqs, _weights(codes), gamma),
                    mask,
                    _capacity(nsq * gamma * gamma, p),
                    _key_column(piece_key, position),
                )
        piece = store.pieces[key]
        if piece is not None and piece.key not in vectors:
            vectors.add(piece.key)
            out.append(piece)

    seqs = [seq for seq, _ in gens]
    for seq in seqs:
        push((seq,), (_GRID,))
    if round_ >= 1:
        grid = (
            [_GRID // 2, _GRID // 4, 3 * _GRID // 4]
            if round_ == 1
            else [k * _GRID // 8 for k in range(1, 8)]
        )
        for pair in itertools.combinations(seqs, 2):
            for w in grid:
                push(pair, (w, _GRID - w))
    if round_ >= _FULL_GRID_ROUND:
        for triple in itertools.combinations(seqs, 3):
            push(triple, (_GRID // 3,) * 3)
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
    known: Container[tuple],
    store: _PieceStore,
) -> dict[tuple, tuple[_Piece, ...]]:
    """Unit members assembled from per-slot pieces, by element key.

    ``known`` holds the keys of every member earlier rounds assembled, so
    a combination whose pieces all sat in the previous round's slot lists
    is skipped unexamined (each round lists the same single generators
    first, so the same slots are nonempty and the previous round tried
    that combination), and any other element already known is skipped
    before it is joined.  A combination's key merges its pieces' keys:
    the pieces sit on disjoint rows, so the sorted concatenation is the
    key of their sum.  A member is its tuple of pieces; what joining
    them adds, row-disjointness and the Lorentz test, is checked on their
    row masks and capacities (``_check_join``).  Nothing is certified
    here: ``_joined`` certifies the pieces of a member the cover weights
    and makes the representative.
    """
    seen: dict[tuple, tuple[_Piece, ...]] = {}
    slot_cache: dict[tuple, tuple[list[_Piece], set[_Piece]]] = {}
    for pattern in _patterns(rows):
        slots, olds = [], []
        for group, rank in pattern:
            cached = slot_cache.get((group, rank))
            if cached is None:
                pieces = _trimmed_pieces(group, rank, p, support, round_, store)
                cached = (pieces, store.listed.get((group, rank), set()))
                slot_cache[group, rank] = cached
                store.listed[group, rank] = set(pieces)
            pieces, old = cached
            if pieces:
                slots.append(pieces)
                olds.append(old)
        if not slots:
            continue
        for combo in itertools.product(*slots):
            if all(piece in old for piece, old in zip(combo, olds)):
                continue
            if len(combo) == 1:
                key = combo[0].key
            else:
                key = tuple(sorted(itertools.chain.from_iterable(piece.key for piece in combo)))
            if key in seen or key in known:
                continue
            _check_join(combo)
            seen[key] = combo
    return seen


def _joined(member: DisjointRep | tuple[_Piece, ...], p: LorentzParam) -> DisjointRep:
    """A pooled member as a representative: a ``_pattern_atoms`` member's
    pieces are certified by ``make_disjoint_rep`` and joined by
    ``join_disjoint_reps``, which re-checks them in Fractions."""
    if isinstance(member, DisjointRep):
        return member
    return join_disjoint_reps([piece.certify(p) for piece in member], p)


class _SupportAtoms:
    """What the refinement rounds build for one support and p, whatever
    the values on it: each round's new members, from one ``_PieceStore``.

    ``rounds[r]`` is round r's ``_pattern_atoms`` as (keys, members),
    with ``known`` the keys of rounds 0..r-1.  Round r's old-piece skip
    reads the slot lists of round r - 1, so ``round`` builds the rounds
    in order, each the first time a call needs it.  A round past
    ``_FULL_GRID_ROUND`` lists the same pieces in every slot as the round
    before, so each of its combinations is old and it adds no member;
    once that round is built the store, with every piece no member holds,
    is dropped.  A piece's certified ``rep`` stays with it, so each piece
    is certified once however many calls join it.
    """

    __slots__ = ("rows", "support", "p", "store", "rounds", "lock")

    def __init__(self, cells: tuple[Cell, ...], p: LorentzParam) -> None:
        self.rows = tuple(sorted({i for i, _ in cells}))
        self.support = frozenset(cells)
        self.p = p
        self.store: _PieceStore | None = _PieceStore()
        self.rounds: list[tuple[tuple[tuple, ...], tuple[tuple[_Piece, ...], ...]]] = []
        self.lock = threading.Lock()

    def round(self, r: int) -> tuple[tuple[tuple, ...], tuple[tuple[_Piece, ...], ...]]:
        """Round r's new members as (keys, members), in pool order."""
        if r > _FULL_GRID_ROUND:
            return (), ()
        with self.lock:
            while len(self.rounds) <= r:
                known = {key for keys, _ in self.rounds for key in keys}
                atoms = _pattern_atoms(
                    self.rows, self.p, self.support, len(self.rounds), known, self.store
                )
                self.rounds.append((tuple(atoms), tuple(atoms.values())))
            if len(self.rounds) > _FULL_GRID_ROUND:
                self.store = None
            return self.rounds[r]


@lru_cache(maxsize=_SUPPORTS)
def _support_atoms(cells: tuple[Cell, ...], num: int, den: int) -> _SupportAtoms:
    """The process-wide ``_SupportAtoms`` of the support cells (sorted)
    and p = num/den."""
    return _SupportAtoms(cells, LorentzParam(num, den))


def _key_column(key: tuple[tuple[Cell, int, int], ...], position: Mapping[Cell, int]) -> _Column:
    """The cover-program column of the vector with element key ``key``:
    its entries on the support cells (row ``position[cell]``) at unit
    cost, as ``lp._column`` builds them."""
    entries = [(position[c], num, den) for c, num, den in key if c in position]
    common = lcm(*(den for _, _, den in entries))
    return _Column(
        tuple(row for row, _, _ in entries),
        tuple(num * (common // den) for _, num, den in entries),
        common,
        common,
    )


def _member_column(pieces: tuple[_Piece, ...]) -> _Column:
    """A ``_pattern_atoms`` member's column, merged from its pieces'
    columns over the lcm of their denominators.  The pieces sit on
    disjoint rows, so this is the ``_key_column`` of the member's key."""
    if len(pieces) == 1:
        return pieces[0].column
    common = lcm(*(piece.column.den for piece in pieces))
    entries = sorted(
        (row, num * (common // col.den))
        for col in (piece.column for piece in pieces)
        for row, num in zip(col.rows, col.nums)
    )
    return _Column(
        tuple(row for row, _ in entries), tuple(num for _, num in entries), common, common
    )


def _cover_program(
    columns: Sequence[_Column],
    cells: tuple[Cell, ...],
    target: Mapping[Cell, Fraction],
    trail: _Trail,
) -> tuple[Fraction, tuple[Fraction, ...], dict[Cell, Fraction]]:
    """Exact minimal-weight cover of the target by the pooled members,
    given as their ``_member_column`` columns.  The previous round's
    program is a prefix of this one, so the solve resumes its ``trail``."""
    res = _solve_columns(columns, [target[cell] for cell in cells], trail)
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
    """The refinement rounds of ``tau_micro_oracle`` from the cheap
    interval ``best``: the best interval reached and the rounds run."""
    active = x.active_rows()
    x_abs = abs(x)
    cells = x_abs.support()
    position = {cell: k for k, cell in enumerate(cells)}
    target = {cell: x_abs.entry(*cell) for cell in cells}
    # each pooled member next to its cover-program column, in pool order:
    # the cheap certificate's members, then each round's new ones; a
    # member is joined into a representative once the cover uses it
    members: list[DisjointRep | tuple[_Piece, ...]] = []
    columns: list[_Column] = []
    cheap: set[tuple] = set()
    for rep in best.upper.reps:
        key = _element_key(rep.element())
        if key not in cheap:
            cheap.add(key)
            members.append(rep)
            columns.append(_key_column(key, position))

    lower = best.lower
    upper = best.upper
    rounds = 0
    atoms = _support_atoms(cells, p.num, p.den)
    tried: set[tuple] = set()  # dual candidates already certified
    trail = _Trail()  # the cover program's pivot path, resumed every round
    for round_ in range(MAX_ROUNDS):
        rounds = round_ + 1
        # a round's members are new to every earlier round, so only the
        # cheap members can repeat one; skipping those keeps the pool
        # order of a per-call build
        for key, member in zip(*atoms.round(round_)):
            if key not in cheap:
                members.append(member)
                columns.append(_member_column(member))
        objective, weights, duals = _cover_program(columns, cells, target, trail)
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
            upper.validate(x)
        candidates = _row_uniform_candidates([rep for _, rep in used], active, cells)
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
    return GaugeInterval(lower, upper), rounds
