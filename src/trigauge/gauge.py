"""Certified bounds on the gauge of the convex body of disjoint sums.

The gauge of interest is the Minkowski functional of V, the convex hull
of all row-disjoint sums of unit-body elements whose piece seminorms
satisfy the weak-Lorentz constraint.  Computing it exactly is a hard
optimization, so every public answer here is a bound carrying a witness
that re-validates independently:

* upper bounds come as ``GaugeCertificate`` objects exhibiting x inside
  scale * co(A) through explicit representatives;
* lower bounds come as ``GaugeLowerWitness`` objects naming a linear
  functional (a coordinate, the row-average seminorm, or a nonnegative
  cell functional) together with its certified ceiling on the body.

The seminorm route divides by the series constant, whose enclosure's
upper end keeps the direction sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (
    DEFAULT_P,
    LorentzParam,
    TriVector,
    _covers,
    _lorentz_le,
    _lorentz_value,
    _row_norm_nums,
    l2_norm_sq,
    lorentz_l2_constant,
    row_norm_sq,
    row_pairing,
)
from .decompose import DisjointRep, make_disjoint_rep
from .exact import Rational, sqrt_enclosure
from .generators import EnumerationBudgetError, GridSeq, HullCertificate, hull_min_scale

# Up to this many active rows gauge_upper scores every row partition (203 on
# 6 rows); above it, the whole support after its row prefixes.  The row sup and
# weak-Lorentz bounds drop a partition before any LP only when it cannot beat
# the best so far, so the cap costs time, not bound quality.
MAX_PARTITION_ROWS = 6


@dataclass(frozen=True, slots=True)
class GaugeCertificate:
    """Witness that |x| <= scale * sum w_l * rep_l.element().

    Each representative is a unit member of the disjoint-sum body, the
    weights are positive with sum at most 1, so the combination lies in
    co(A) and solidity places x inside scale * V.

    ``validate`` re-derives all of it: every representative through
    ``is_unit_member``, then the cover (``_check_cover``).  Builders
    whose representatives come straight from ``make_disjoint_rep``,
    which runs the very check ``is_unit_member`` runs, or from
    ``join_disjoint_reps`` at squared Lorentz bound 1 over such
    representatives, run only the cover check: ``gauge_upper``,
    ``pairing_witness`` and the micro oracle's refinement.
    """

    weights: tuple[Fraction, ...]
    reps: tuple[DisjointRep, ...]
    scale: Fraction

    def validate(self, x: TriVector) -> None:
        for rep in self.reps:
            if not rep.is_unit_member():
                raise AssertionError("representative is not a unit member")
        self._check_cover(x)

    def _check_cover(self, x: TriVector) -> None:
        """What the certificate adds to its representatives: the weights,
        the scale, and the combination dominating |x|."""
        if len(self.weights) != len(self.reps):
            raise AssertionError("length mismatch")
        if any(w <= 0 for w in self.weights):
            raise AssertionError("weights must be positive")
        if sum(self.weights, Fraction(0)) > 1:
            raise AssertionError("weights exceed 1")
        if self.scale < 0:
            raise AssertionError("negative scale")
        parts = (
            (piece, w * self.scale)
            for w, rep in zip(self.weights, self.reps)
            for piece in rep.pieces
        )
        if not _covers(parts, x):
            raise AssertionError("combination does not dominate |x|")


def _rescaled_hull_cert(cert: HullCertificate, factor: Rational) -> HullCertificate:
    return HullCertificate(cert.seqs, cert.weights, cert.scale * Fraction(factor))


def _single_rep_certificate(
    pieces: Sequence[TriVector],
    certs: Sequence[HullCertificate],
    scale: Fraction,
    p: LorentzParam,
) -> GaugeCertificate:
    """Certificate from row-disjoint pieces with piece_l in certs[l].scale * U.

    The bound is scale = max(hull scales, Lorentz value of the piece
    seminorms); dividing everything by it yields one honest unit member.
    """
    if scale <= 0:
        raise ValueError("positive scale required")
    inv = 1 / scale
    rep = make_disjoint_rep(
        [piece.scale(inv) for piece in pieces],
        p,
        certs=[_rescaled_hull_cert(c, inv) for c in certs],
    )
    return GaugeCertificate((Fraction(1),), (rep,), scale)


def _set_partitions(items: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield ((first,),) + sub
        for idx, group in enumerate(sub):
            yield sub[:idx] + ((first,) + group,) + sub[idx + 1 :]


def _full_row_cert(i: int, sup: Fraction) -> HullCertificate:
    """Single-row piece certificate: sup * (full row) dominates a row whose
    largest |x_ij| is ``sup``."""
    return HullCertificate((GridSeq.from_counts({i: i}),), (Fraction(1),), sup)


def gauge_upper(x: TriVector, p: LorentzParam) -> GaugeCertificate:
    """Best certified upper bound over three search strategies.

    Tries the per-row split whose hull scales are plain row suprema,
    every partition of the active rows into hull pieces (small supports
    only), and otherwise the whole support as one hull piece.  Only the
    first partition with the smallest scale is built into a certificate;
    the row suprema come from one pass over |x|, and the per-row split's
    hull certificates are formed only when it is that partition.  The
    bound is never claimed minimal.

    A partition's scale is max(hull scale of each group, Lorentz value
    of the group seminorms), and only a strictly smaller scale replaces
    the best so far.  Two exact lower bounds on it need no LP, so they
    run first.  Every hull scale is at least the largest |x_ij| on its
    rows, so the search ends once the best reaches the largest entry.
    The row seminorm numerators come from one pass over |x|, over one
    common denominator, so a group's seminorm is an integer sum and each
    partition runs the weak-Lorentz test against the best's square
    (formed once per new best), then the enclosure's upper end, on
    sorted ints; either drops a partition whose Lorentz value is not
    below the best.  The partitions share one dict of root enclosures,
    so each distinct term's root is enclosed once per call, and a
    partition whose top term is already there reuses its cut test.
    The groups of a partition that survives are solved, already decided
    and smaller groups first, until one's hull scale is not below the
    best.  Dropping rows never raises a hull scale, so a group is not
    solved once a solved group on a subset of its rows has a scale not
    below the best.  Each test skips only partitions that could not have
    replaced the best, so the result is the one that solving every group
    would give.  Each group's covering LP is solved at most once per
    call, and a one-row group needs none (``hull_min_scale``).

    On six rows the partitions include the whole support as one group,
    the only candidate tried above ``MAX_PARTITION_ROWS``, and only once
    its row prefixes of up to that many rows stay below the best (a prefix
    past the enumeration budget leaves the whole support past it too).
    """
    target = abs(x)
    if target.is_zero():
        return GaugeCertificate((), (), Fraction(0))
    sups: dict[int, Fraction] = {}  # each row's largest |x_ij|, rows in order
    for (i, _), v in target.items():
        if i not in sups or v > sups[i]:
            sups[i] = v
    rows = tuple(sups)
    # None: the enumeration budget ran out, or a subgroup ruled the group out
    hulls: dict[tuple[int, ...], tuple[Fraction, HullCertificate] | None] = {}
    norms: dict[tuple[int, ...], int] = {}  # group seminorm numerators over den

    def hull_below(group: tuple[int, ...], bound: Fraction) -> bool:
        if group not in hulls:
            # fewer rows never raise the hull scale, and the bound only falls:
            # a solved subgroup at or above it rules this group out for good
            rows_in = set(group)
            if any(
                solved is not None and solved[0] >= bound and rows_in.issuperset(sub)
                for sub, solved in hulls.items()
            ):
                hulls[group] = None
            else:
                try:
                    hulls[group] = hull_min_scale(target.restrict_rows(group))
                except EnumerationBudgetError:
                    hulls[group] = None  # enumeration too large for this grouping
        solved = hulls[group]
        return solved is not None and solved[0] < bound

    def norm_sq(group: tuple[int, ...]) -> int:
        if group not in norms:
            norms[group] = sum(row_num[i] for i in group)
        return norms[group]

    # the row seminorms as integer numerators over one denominator
    row_num, den = _row_norm_nums(target)
    roots: dict = {}  # root enclosures shared by every partition's Lorentz value
    row_value = _lorentz_value(sorted(row_num.values(), reverse=True), den, p, roots=roots)
    floor = max(sups.values())  # no partition's scale is below the largest |x_ij|
    # per-row split: no enumeration, always available; its certificates
    # (None here) are built only if it is still the best at the end
    best = (max(floor, row_value.hi), tuple((i,) for i in rows), None)

    if len(rows) <= MAX_PARTITION_ROWS:
        bound_sq = best[0] ** 2  # formed again only for a new best
        for partition in _set_partitions(rows):
            bound = best[0]
            if bound <= floor:
                break
            if len(partition) == len(rows):
                continue  # the singleton partition is the per-row split
            group_sq = sorted((norm_sq(group) for group in partition), reverse=True)
            if not _lorentz_le(group_sq, den, bound_sq, p):
                continue
            scale = _lorentz_value(group_sq, den, p, roots=roots).hi
            if scale >= bound:
                continue
            # decided groups cost nothing; then fewer rows means a smaller LP
            order = sorted(partition, key=lambda group: (group not in hulls, len(group)))
            if all(hull_below(group, bound) for group in order):
                scale = max(scale, *(hulls[group][0] for group in partition))
                best = (scale, partition, tuple(hulls[group][1] for group in partition))
                bound_sq = scale**2
    elif best[0] > floor:
        order = [rows[:k] for k in range(2, MAX_PARTITION_ROWS + 1)] + [rows]
        if all(hull_below(group, best[0]) for group in order):
            best = (hulls[rows][0], (rows,), (hulls[rows][1],))

    scale, groups, certs = best
    if certs is None:
        certs = [_full_row_cert(i, sups[i]) for i in rows]
    pieces = [target.restrict_rows(group) for group in groups]
    cert = _single_rep_certificate(pieces, certs, scale, p)
    cert._check_cover(x)  # make_disjoint_rep checked the representative
    return cert


def _dual_ceiling(cells: Sequence, weights: Sequence, p: LorentzParam) -> Fraction:
    """The micro enclosure's certified bound of <y, a> over unit members a,
    for the cell functional y, over the rows its cells touch."""
    from .micro import SUPPORT_ROW_CAP, _ceiling  # micro imports this module

    if len(set(cells)) != len(cells):
        raise AssertionError("dual cells repeat")
    if any(not 1 <= j <= i <= SUPPORT_ROW_CAP for i, j in cells):
        raise AssertionError(f"dual cells must lie within rows 1..{SUPPORT_ROW_CAP}")
    y = {cell: Fraction(w) for cell, w in zip(cells, weights)}
    rows = tuple(sorted({i for i, _ in cells}))
    return _ceiling(y, rows, p)


@dataclass(frozen=True, slots=True)
class GaugeLowerWitness:
    """A functional bounded on the body, evaluated at x.

    kind 'sup': coordinate functional at detail = (i, j); every body
    element stays within [-1, 1] there.  kind 'seminorm': the row-average
    seminorm over its body ceiling (the series constant's upper end).
    kind 'dual': a nonnegative cell functional, detail = (cells,
    weights), whose ceiling the micro enclosure certified over the body.

    ``validate`` re-derives every ceiling: 'sup' needs 1, 'seminorm'
    needs at least the upper end of the series constant for ``p``, and
    'dual' needs at least the micro enclosure's certified
    bound for its functional over the rows its cells touch, which must
    lie within the enclosure's rows.
    """

    value: Fraction
    kind: str
    detail: tuple
    ceiling: Fraction  # certified bound of the functional on the body
    p: LorentzParam = DEFAULT_P

    def validate(self, x: TriVector) -> None:
        if self.value < 0 or self.ceiling <= 0:
            raise AssertionError("witness values must be nonnegative")
        if self.kind == "seminorm" and self.ceiling < lorentz_l2_constant(self.p).hi:
            raise AssertionError("ceiling below the series constant")
        if self.kind == "sup":
            i, j = self.detail
            if self.ceiling != 1 or abs(x.entry(i, j)) < self.value * self.ceiling:
                raise AssertionError("coordinate witness does not reach its value")
        elif self.kind == "seminorm":
            if (self.value * self.ceiling) ** 2 > row_norm_sq(x):
                raise AssertionError("seminorm witness does not reach its value")
        elif self.kind == "dual":
            cells, weights = self.detail
            if len(cells) != len(weights) or any(Fraction(w) < 0 for w in weights):
                raise AssertionError("dual weights must be nonnegative")
            if self.ceiling < _dual_ceiling(cells, weights, self.p):
                raise AssertionError("ceiling below the certified dual bound")
            paired = sum(
                (Fraction(w) * abs(x.entry(i, j)) for (i, j), w in zip(cells, weights)),
                Fraction(0),
            )
            if paired < self.value * self.ceiling:
                raise AssertionError("dual witness does not reach its value")
        else:
            raise AssertionError(f"unknown witness kind {self.kind!r}")


def gauge_lower(x: TriVector, p: LorentzParam) -> GaugeLowerWitness:
    """The better of the coordinate and seminorm routes.

    The seminorm route divides the lower end of the seminorm enclosure
    by the upper end of the series constant.  That lower end is at most
    the seminorm, so the route is formed only when the squared seminorm
    exceeds (largest |x_ij| times that upper end)^2; otherwise it cannot
    beat the coordinate route.
    """
    if x.is_zero():
        return GaugeLowerWitness(Fraction(0), "sup", (1, 1), Fraction(1), p)
    cell, value = max(x.items(), key=lambda kv: (abs(kv[1]), kv[0]))
    best = GaugeLowerWitness(abs(value), "sup", cell, Fraction(1), p)
    c_hi = lorentz_l2_constant(p).hi
    norm_sq = row_norm_sq(x)
    if norm_sq > (best.value * c_hi) ** 2:  # else the route cannot beat sup
        seminorm = GaugeLowerWitness(sqrt_enclosure(norm_sq).lo / c_hi, "seminorm", (), c_hi, p)
        if seminorm.value > best.value:
            best = seminorm
    return best


@dataclass(frozen=True, slots=True)
class GaugeInterval:
    lower: GaugeLowerWitness
    upper: GaugeCertificate

    @property
    def lo(self) -> Fraction:
        return self.lower.value

    @property
    def hi(self) -> Fraction:
        return self.upper.scale


def gauge_interval(x: TriVector, p: LorentzParam) -> GaugeInterval:
    """Two-sided certified bounds; lo <= hi holds because both are sound."""
    lower = gauge_lower(x, p)
    upper = gauge_upper(x, p)
    if lower.value > upper.scale:
        raise AssertionError("certified bounds crossed; this is a bug")
    return GaugeInterval(lower, upper)


# -- quotient pairing witnesses --------------------------------------------------


@dataclass(frozen=True, slots=True)
class PairingWitness:
    """Body element y with <row averages of y, b> = pairing.

    branch 1 works off a dominant head coordinate, branch 2 off the
    floor counts of the tail; the certificate places y in 1 * V.
    """

    vector: TriVector
    pairing: Fraction
    branch: int
    certificate: GaugeCertificate

    def validate(self, b: Sequence[Rational]) -> None:
        if row_pairing(self.vector, b) != self.pairing:
            raise AssertionError("stored pairing does not match the vector")
        self.certificate.validate(self.vector)


def pairing_witness(b: Sequence[Rational], p: LorentzParam) -> PairingWitness:
    """Body element pairing well against the unit vector b.

    Requires sum b_i^2 = 1 exactly.  When the first four coordinates
    carry squared mass at least 5/9, the witness is the densest of those
    rows under the sign of its coefficient (branch 1, pairing equal to
    that coefficient's absolute value, at least sqrt(5)/6).  Otherwise
    the tail rows i >= 5 receive floor(i |b_i|) cells each under their
    signs (branch 2).
    """
    b = tuple(Fraction(v) for v in b)
    if l2_norm_sq(b) != 1:
        raise ValueError("need an exactly unit vector")
    head = b[:4]
    if sum((v**2 for v in head), Fraction(0)) >= Fraction(5, 9):
        i0 = max(range(len(head)), key=lambda i: (abs(head[i]), -i)) + 1
        sign = 1 if b[i0 - 1] > 0 else -1
        seq = GridSeq.from_counts({i0: i0})
        vector = seq.indicator().scale(sign)
        branch = 1
    else:
        seq = GridSeq.from_counts({i: int(i * abs(b[i - 1])) for i in range(5, len(b) + 1)})
        entries = {}
        for i, count in seq.pairs():
            sign = 1 if b[i - 1] > 0 else -1
            for j in range(1, count + 1):
                entries[(i, j)] = Fraction(sign)
        vector = TriVector(entries)
        branch = 2
    # the certificate covers |y|; solidity carries the signed vector into V
    rep = make_disjoint_rep(
        [seq.indicator()],
        p,
        certs=[HullCertificate((seq,), (Fraction(1),), Fraction(1))],
    )
    cert = GaugeCertificate((Fraction(1),), (rep,), Fraction(1))
    cert._check_cover(vector)  # make_disjoint_rep checked the representative
    return PairingWitness(vector, row_pairing(vector, b), branch, cert)
