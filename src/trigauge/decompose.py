"""Decompositions of flat averages and the splitting of hull elements.

The central algorithm takes a uniform average x = (1/M) sum of M
indicator vectors whose sup norm is at most eps and produces a
certificate that x lies in q * A for an explicitly computed rational
q <= 5 eps^(1/4), where A is the set of row-disjoint sums of unit-body
elements with weak-Lorentz piece seminorms at most 1.  Everything is
exact: the only irrational quantities in the mathematics (the blocking
threshold, fourth roots of eps) are replaced by rational surrogates
whose defining inequalities are checked through integer power tests.

Pipeline:

1. sup(x) <= eps is equivalent to no row being active in more than
   k = floor(eps M) of the generators.
2. Per active coordinate, the squared generator coefficients are sorted
   decreasingly into a [0,1]-valued matrix with k rank rows; its total
   mass is at most M.
3. Coordinates are blocked greedily so each block (except possibly the
   last) carries mass just above theta * M, where theta is a rational
   upper surrogate of the threshold (2 eps^(-p/4) - 1)^(-1).
   The block count L then satisfies L^(4 den) eps^num < 2^(4 den).
4. Each block's submatrix is partitioned into parts holding at most one
   cell per column with cell sums <= 1; reductions remove at least 1/2
   of mass each, so a block yields r_m <= (2 theta + 3 eps) M parts.
5. Parts turn into generator sequences by copying the donor counts, the
   block sums y_m reassemble x exactly, each y_m lies in (r_m / M) U,
   and the vector of seminorms obeys the fourth-power Lorentz test
   against 16 eps.

A ``DisjointRep`` represents an element of A: row-disjoint pieces with
hull certificates at scale at most 1 and seminorms under the Lorentz
bound 1, one check that ``make_disjoint_rep`` and ``is_unit_member``
share.  The same machinery splits an arbitrary element of the gauge
body (``split_element``) into a front part certified small in gauge plus
a tail whose representatives have uniformly small piece seminorms, and
merges row-disjoint representatives with geometrically growing lengths
(``merge_representatives``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import (
    LorentzParam,
    TriVector,
    _weighted_sum,
    is_row_disjoint,
    lorentz_le_sq,
    lorentz_value_sq,
    row_norm_sq,
)
from .exact import Rational, iroot, pow_enclosure
from .generators import (
    GridSeq,
    HullCertificate,
    ZERO_SEQ,
    average_indicators,
    disjointness_degree,
    indicator_sum,
)


def _integer_columns(cols) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Columns of rationals as numerators over D, the lcm of their denominators."""
    cols = [[Fraction(v) for v in col] for col in cols]
    denom = lcm(*(v.denominator for col in cols for v in col))
    nums = tuple(tuple(v.numerator * (denom // v.denominator) for v in col) for col in cols)
    return nums, denom


def _select_over(values: Sequence[int], denom: int) -> tuple[int, ...]:
    """``select_subset`` on values given as numerators over denom.

    The caller guarantees values in [0, denom] with total above denom.
    """
    for idx, v in enumerate(values):
        if 2 * v >= denom:
            return (idx,)
    chosen: list[int] = []
    acc = 0
    for idx, v in enumerate(values):
        if v:
            chosen.append(idx)
            acc += v
            if 2 * acc >= denom:
                return tuple(chosen)
    raise AssertionError("unreachable: total exceeds 1")


def select_subset(values: Sequence[Rational]) -> tuple[int, ...]:
    """Indices (0-based) of a subset with sum in [1/2, 1].

    Requires values in [0, 1] with total > 1.  Takes the first single
    value >= 1/2 when one exists, otherwise the shortest prefix of the
    positive entries reaching 1/2; either way the selected sum cannot
    exceed 1.  Works in integers: the values become numerators over D,
    the lcm of their denominators, and v >= 1/2 reads 2v >= D.
    """
    (nums,), denom = _integer_columns((values,))
    if any(v < 0 or v > denom for v in nums):
        raise ValueError("values must lie in [0, 1]")
    if sum(nums) <= denom:
        raise ValueError("total must exceed 1")
    return _select_over(nums, denom)


@dataclass(frozen=True, slots=True)
class PartitionResult:
    """Cells grouped so each part holds <= 1 cell per column, sums <= 1."""

    parts: tuple[frozenset[tuple[int, int]], ...]  # cells (depth, column)
    reductions: int


def partition_matrix(cols) -> PartitionResult:
    """Partition the cells of a sorted [0,1] matrix.

    Runs reductions until the top entries sum to at most 1, then sweeps
    the leftover cells at each depth into one part apiece (their sums
    are dominated by the final top sums, hence <= 1).  The number of
    reductions is less than twice the total mass.  Cell addresses are
    (depth from the top of the column, column index); every cell lands
    in exactly one part, zero cells always in a leftover part.

    Works in integers: entries become numerators over D, the lcm of
    their denominators, and the sum of the column tops is kept running,
    updated only for the columns each reduction picks.
    """
    cols, denom = _integer_columns(cols)
    if any(v < 0 or v > denom for col in cols for v in col):
        raise ValueError("matrix entries must lie in [0, 1]")
    if any(a < b for col in cols for a, b in zip(col, col[1:])):
        raise ValueError("columns must be sorted nonincreasing")
    # Each round removes the top remaining cell of a column subset whose
    # tops sum to at least 1/2 (``select_subset``'s rule); cells above
    # pointers[j] are removed.  Sortedness puts nonzero cells first, so
    # pointers only ever traverse nonzero prefixes, and ``active`` lists
    # the columns with a nonzero cell left, in column order.
    pointers = [0] * len(cols)
    nonzero = [sum(1 for v in col if v) for col in cols]
    active = [j for j in range(len(cols)) if nonzero[j]]
    top_sum = sum(cols[j][0] for j in active)
    parts: list[frozenset[tuple[int, int]]] = []
    while top_sum > denom:
        picked = _select_over([cols[j][pointers[j]] for j in active], denom)
        part = []
        for i in picked:
            j = active[i]
            depth = pointers[j]
            part.append((depth, j))
            top_sum -= cols[j][depth]
            pointers[j] = depth + 1
            if depth + 1 < nonzero[j]:
                top_sum += cols[j][depth + 1]
        parts.append(frozenset(part))
        active = [j for j in active if pointers[j] < nonzero[j]]
    reductions = len(parts)
    total = sum(map(sum, cols))
    if total > 0 and reductions * denom >= 2 * total:
        raise AssertionError("reduction count reached 2 * mass")
    max_depth = max((len(col) for col in cols), default=0)
    for depth in range(max_depth):
        part = frozenset(
            (depth, j) for j in range(len(cols)) if pointers[j] <= depth < len(cols[j])
        )
        if part:
            parts.append(part)
    _validate_partition(cols, denom, parts)
    return PartitionResult(tuple(parts), reductions)


def _validate_partition(cols, denom: int, parts) -> None:
    """Raise unless parts partition the cells, each holding at most one
    cell per column with sum <= 1, in at most 2M + k parts (M the mass,
    k the deepest column).  Entries are numerators over denom."""
    mass = sum(map(sum, cols))
    deepest = max((len(col) for col in cols), default=0)
    if len(parts) * denom > 2 * mass + deepest * denom:
        raise AssertionError("part count above 2M + k")
    cells = {(d, j) for j, col in enumerate(cols) for d in range(len(col))}
    seen: set[tuple[int, int]] = set()
    for part in parts:
        if not part <= cells:
            raise AssertionError("cell outside the matrix in a part")
        by_col: set[int] = set()
        total = 0
        for depth, j in part:
            if j in by_col:
                raise AssertionError("two cells of one column in a part")
            by_col.add(j)
            total += cols[j][depth]
        if total > denom:
            raise AssertionError("part sum exceeds 1")
        if part & seen:
            raise AssertionError("cell in two parts")
        seen |= part
    if seen != cells:
        raise AssertionError("cells lost by partition")


def column_blocking(masses: Sequence[Rational], threshold: Rational) -> tuple[int, ...]:
    """Greedy breakpoints 0 = c_0 < c_1 < ... <= len(masses).

    Each block [c_m, c_{m+1}) accumulates mass until it first exceeds
    the threshold; a leftover block of mass <= threshold may close the
    list.  Empty input gives (0,).
    """
    threshold = Fraction(threshold)
    if threshold < 0:
        raise ValueError("negative threshold")
    masses = [Fraction(m) for m in masses]
    if any(m < 0 for m in masses):
        raise ValueError("negative mass")
    breaks = [0]
    acc = Fraction(0)
    for idx, m in enumerate(masses, start=1):
        acc += m
        if acc > threshold:
            breaks.append(idx)
            acc = Fraction(0)
    if breaks[-1] != len(masses):
        breaks.append(len(masses))
    return tuple(breaks)


def theta_for(epsilon: Rational, p: LorentzParam) -> Fraction:
    """Rational theta slightly above the threshold (2 eps^(-p/4) - 1)^(-1).

    Refined until both defining inequalities hold exactly: theta at or
    above the threshold, certified by eps^num <= (2 theta / (1 + theta))^(4 den),
    and (2 theta + 3 eps)^4 <= 625 eps, the scale inequality the final
    certificate relies on.  Both hold for the true threshold whenever
    0 < eps < 1, so refinement terminates.
    """
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    for bits in (48, 96, 192, 384, 768):
        zeta_hi = pow_enclosure(eps, p.num, 4 * p.den, bits).hi
        if zeta_hi >= 1:
            continue
        theta = zeta_hi / (2 - zeta_hi)
        ok_eta = eps**p.num <= (2 * theta / (1 + theta)) ** (4 * p.den)
        ok_scale = (2 * theta + 3 * eps) ** 4 <= 625 * eps
        if ok_eta and ok_scale:
            return theta
    raise ArithmeticError("could not certify a blocking threshold")


@dataclass(frozen=True, slots=True)
class DecompositionBlock:
    pieces: tuple[GridSeq, ...]  # nonzero parts turned into sequences
    reductions: int
    part_count: int  # r_m = reductions + k, >= len(pieces)
    block_norm_sq: Fraction  # squared row-average seminorm of the block sum


@dataclass(frozen=True, slots=True)
class DecompositionCertificate:
    """Witness that a flat average lies in scale * A, scale <= 5 eps^(1/4)."""

    epsilon: Fraction
    p: LorentzParam
    m_count: int  # M, number of averaged generators
    k: int  # floor(eps M)
    theta: Fraction
    columns: tuple[int, ...]  # active coordinates, increasing
    breakpoints: tuple[int, ...]  # indices into columns
    blocks: tuple[DecompositionBlock, ...]
    scale: Fraction

    def block_columns(self, m: int) -> tuple[int, ...]:
        return self.columns[self.breakpoints[m] : self.breakpoints[m + 1]]

    def block_vector(self, m: int) -> TriVector:
        return indicator_sum(self.blocks[m].pieces, self.m_count)

    def hull_witness(self, m: int) -> HullCertificate:
        blk = self.blocks[m]
        r = blk.part_count
        return HullCertificate(
            blk.pieces,
            tuple(Fraction(1, r) for _ in blk.pieces),
            Fraction(r, self.m_count),
        )

    def validate(self, seqs: Sequence[GridSeq]) -> None:
        """Recompute every certificate condition exactly against seqs;
        raise AssertionError at the first that fails."""
        eps, p, mm = self.epsilon, self.p, self.m_count
        if mm != len(seqs):
            raise AssertionError(f"certificate built for {mm} sequences, got {len(seqs)}")
        if self.k != int(eps * mm):
            raise AssertionError("stored k is not floor(eps M)")
        if disjointness_degree(seqs) > self.k:
            raise AssertionError("sup of the average exceeds eps")

        # theta must dominate the true threshold and satisfy the scale bound
        if eps**p.num > (2 * self.theta / (1 + self.theta)) ** (4 * p.den):
            raise AssertionError("theta below the blocking threshold")
        if (2 * self.theta + 3 * eps) ** 4 > 625 * eps:
            raise AssertionError("(2 theta + 3 eps)^4 above 625 eps")

        columns = tuple(sorted({i for s in seqs for i in s.active_rows()}))
        if self.columns != columns:
            raise AssertionError("stored columns differ from the active coordinates")
        # the column blocking: mass and count conditions
        squares: dict[int, int] = {}
        for s in seqs:
            for i, c in s.pairs():
                squares[i] = squares.get(i, 0) + c * c
        masses = [Fraction(squares[i], i * i) for i in columns]
        bp = self.breakpoints
        if not bp or bp[0] != 0 or bp[-1] != len(masses) or list(bp) != sorted(set(bp)):
            raise AssertionError(f"breakpoints {bp} do not segment {len(masses)} columns")
        count = len(bp) - 1
        for m in range(count):
            mass = sum(masses[bp[m] : bp[m + 1]], Fraction(0))
            if mass > (self.theta + eps) * mm:
                raise AssertionError(f"block {m} mass {mass} exceeds (theta+eps)M")
            if m < count - 1 and mass <= self.theta * mm:
                raise AssertionError(f"non-final block {m} mass {mass} not above theta*M")
        # count < 2 eps^(-p/4), exactly: count^(4 den) * eps^num < 2^(4 den)
        if count and count ** (4 * p.den) * eps**p.num >= 2 ** (4 * p.den):
            raise AssertionError(f"block count {count} too large for eps")
        if len(self.blocks) != count:
            raise AssertionError("one block required per breakpoint segment")

        bound = (2 * self.theta + 3 * eps) * mm
        for m, blk in enumerate(self.blocks):
            cols_m = set(self.block_columns(m))
            if blk.part_count != blk.reductions + self.k:
                raise AssertionError(f"block {m}: part count is not reductions + k")
            if len(blk.pieces) > blk.part_count:
                raise AssertionError(f"block {m}: more pieces than parts")
            if blk.part_count > bound:
                raise AssertionError(f"block {m}: part count above (2 theta + 3 eps) M")
            if Fraction(blk.part_count, mm) ** 4 > 625 * eps:
                raise AssertionError(f"block {m}: hull scale above 5 eps^(1/4)")
            if any(not set(piece.active_rows()) <= cols_m for piece in blk.pieces):
                raise AssertionError(f"block {m}: piece leaves the block columns")
            y_m = self.block_vector(m)
            if row_norm_sq(y_m) != blk.block_norm_sq:
                raise AssertionError(f"block {m}: stored seminorm square is wrong")
            try:
                self.hull_witness(m).validate(y_m)
            except AssertionError as exc:
                raise AssertionError(f"block {m}: hull witness invalid ({exc})") from None

        # Exact reassembly: per coordinate, the nonzero counts of the pieces
        # must be a permutation of the nonzero counts of the input sequences.
        want = Counter(pair for s in seqs for pair in s.pairs())
        got = Counter(pair for blk in self.blocks for piece in blk.pieces for pair in piece.pairs())
        if want != got:
            i = min(i for i, _ in (want - got) + (got - want))
            raise AssertionError(f"coordinate {i}: counts not preserved")

        # Scale: covers every block's hull scale and the Lorentz bound of the
        # block seminorms; the fourth-power test certifies the 2 eps^(1/4)
        # claim, and the scale itself must meet the 5 eps^(1/4) target.
        norms = [blk.block_norm_sq for blk in self.blocks]
        if not lorentz_le_sq(norms, 16 * eps, p, power=4):
            raise AssertionError("block seminorms fail the 16 eps fourth-power test")
        if self.blocks:
            needed = max(
                max(Fraction(b.part_count, mm) for b in self.blocks),
                lorentz_value_sq(norms, p).hi,
            )
            if self.scale < needed:
                raise AssertionError("stored scale below the certified requirement")
        if self.scale**4 > 625 * eps:
            raise AssertionError("scale above 5 eps^(1/4)")


def decompose_average(
    seqs: Sequence[GridSeq], epsilon: Rational, p: LorentzParam
) -> DecompositionCertificate:
    """Certificate that (1/M) sum indicator(seq) lies in scale * A.

    Requires sup of the average at most eps, i.e. no coordinate active
    in more than floor(eps M) of the sequences.  The certificate is
    validated against seqs before it is returned.
    """
    cert = _decompose_average(seqs, epsilon, p)
    cert.validate(seqs)
    return cert


def _decompose_average(
    seqs: Sequence[GridSeq], epsilon: Rational, p: LorentzParam
) -> DecompositionCertificate:
    """``decompose_average`` without the final ``validate``, for a caller
    that validates the certificate itself."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    if not seqs:
        raise ValueError("empty family")
    mm = len(seqs)
    k = int(eps * mm)
    degree = disjointness_degree(seqs)
    if degree > k:
        raise ValueError(f"sup of average is {degree}/{mm}, above eps")
    theta = theta_for(eps, p)
    active: dict[int, list[tuple[int, int]]] = {}  # row -> (count, sequence index)
    for q, s in enumerate(seqs):
        for i, c in s.pairs():
            active.setdefault(i, []).append((c, q))
    columns = tuple(sorted(active))

    # Sorted squared-coefficient matrix: one column per active coordinate,
    # entries the squared coefficients (count / i)^2 of the sequences
    # active there, in decreasing order with ties by sequence index.
    # Donors ride along.
    cols: list[tuple[Fraction, ...]] = []
    donors: list[tuple[int, ...]] = []
    masses: list[Fraction] = []
    for i in columns:
        pairs = sorted(active[i], key=lambda t: (-t[0], t[1]))
        cols.append(tuple(Fraction(c * c, i * i) for c, _ in pairs))
        donors.append(tuple(q for _, q in pairs))
        masses.append(Fraction(sum(c * c for c, _ in pairs), i * i))
    breaks = column_blocking(masses, theta * mm)

    blocks: list[DecompositionBlock] = []
    for m in range(len(breaks) - 1):
        lo, hi = breaks[m], breaks[m + 1]
        part_res = partition_matrix(cols[lo:hi])
        pieces: list[GridSeq] = []
        for part in part_res.parts:
            counts: dict[int, int] = {}
            for depth, j in part:
                coord = columns[lo + j]
                donor = seqs[donors[lo + j][depth]]
                counts[coord] = donor.count(coord)
            if counts:
                pieces.append(GridSeq.from_counts(counts))
        r_m = part_res.reductions + k
        if len(pieces) > r_m:
            raise AssertionError("more parts than the guaranteed bound")
        y_m = indicator_sum(pieces, mm)
        blocks.append(
            DecompositionBlock(tuple(pieces), part_res.reductions, r_m, row_norm_sq(y_m))
        )

    lorentz_hi = lorentz_value_sq([b.block_norm_sq for b in blocks], p).hi if blocks else Fraction(0)
    scale = max(
        max((Fraction(b.part_count, mm) for b in blocks), default=Fraction(0)),
        lorentz_hi,
    )
    return DecompositionCertificate(eps, p, mm, k, theta, columns, breaks, tuple(blocks), scale)


def block_conditions_sq(
    values_sq: Sequence[Rational], breakpoints: Sequence[int], p: LorentzParam
) -> bool:
    """Conditions forcing a blocked sequence's weak-Lorentz norm below 2.

    Data arrives squared.  With breakpoints 0 = n_0 < ... < n_K covering
    the sequence, block k+1 must have weak-Lorentz norm at most 1 and
    every entry past n_k must be at most n_k^(-1/p) (vacuous for the
    first block).  Sequences passing both tests satisfy the exact bound
    lorentz_le_sq(values_sq, 4, p).
    """
    squares = [Fraction(v) for v in values_sq]
    if any(v < 0 for v in squares):
        raise ValueError("negative square in data")
    bp = tuple(breakpoints)
    if (
        not bp
        or bp[0] != 0
        or bp[-1] != len(squares)
        or any(a >= b for a, b in zip(bp, bp[1:]))
    ):
        raise ValueError(f"breakpoints {bp} do not segment {len(squares)} entries")
    for k in range(len(bp) - 1):
        block = squares[bp[k] : bp[k + 1]]
        if not lorentz_le_sq(block, 1, p):
            return False
        n_k = bp[k]
        if n_k and any(v**p.num * n_k ** (2 * p.den) > 1 for v in block):
            return False
    return True


# -- representatives of row-disjoint sums -------------------------------------


def _unit_norms(
    pieces: Sequence[TriVector], certs: Sequence[HullCertificate], p: LorentzParam
) -> tuple[Fraction, ...]:
    """The piece seminorm squares of a unit member of A, recomputed; raises
    at the first failed condition: the pieces share a row, there is not one
    certificate per piece, one fails ``validate`` (AssertionError) or has a
    scale above 1, or the seminorms break the Lorentz bound 1."""
    if not is_row_disjoint(*pieces):
        raise ValueError("pieces share a row")
    if len(certs) != len(pieces):
        raise ValueError("one certificate per piece required")
    for piece, cert in zip(pieces, certs):
        cert.validate(piece)
        if cert.scale > 1:
            raise ValueError("hull scale above 1")
    norms = tuple(row_norm_sq(piece) for piece in pieces)
    if not lorentz_le_sq(norms, 1, p):
        raise ValueError("piece seminorms break the Lorentz bound")
    return norms


@dataclass(frozen=True, slots=True)
class DisjointRep:
    """Representative of a row-disjoint sum of unit-body elements.

    Each piece comes with a hull certificate placing it in scale_i * U;
    the Lorentz bound is on the piece seminorms.  With all scale_i <= 1
    and lorentz_sq_bound <= 1 the summed element lies in A.
    """

    pieces: tuple[TriVector, ...]
    certs: tuple[HullCertificate, ...]
    norms_sq: tuple[Fraction, ...]
    p: LorentzParam
    lorentz_sq_bound: Fraction

    def element(self) -> TriVector:
        return _weighted_sum((piece, 1) for piece in self.pieces)

    @property
    def length(self) -> int:
        return len(self.pieces)

    def max_norm_sq(self) -> Fraction:
        return max(self.norms_sq, default=Fraction(0))

    def is_unit_member(self) -> bool:
        """Whether the pieces and certificates pass ``make_disjoint_rep``'s
        check and the stored seminorms are the ones it recomputes."""
        try:
            return _unit_norms(self.pieces, self.certs, self.p) == self.norms_sq
        except (AssertionError, ValueError):
            return False


def make_disjoint_rep(
    pieces: Sequence[TriVector], p: LorentzParam, certs: Sequence[HullCertificate]
) -> DisjointRep:
    """Representative of a unit member of A, one hull certificate per
    piece; raises unless it passes the check ``is_unit_member`` runs."""
    pieces, certs = tuple(pieces), tuple(certs)
    return DisjointRep(pieces, certs, _unit_norms(pieces, certs, p), p, Fraction(1))


def join_disjoint_reps(
    reps: Sequence[DisjointRep], p: LorentzParam, lorentz_sq_bound: Rational
) -> DisjointRep:
    """Concatenation of checked representatives at a squared Lorentz bound.

    The inputs must have checked certificates and seminorms, from
    ``make_disjoint_rep`` or ``is_unit_member``: both are reused here,
    not re-derived.  Only what concatenating adds is checked: the pieces
    stay row-disjoint and their seminorms pass the Lorentz test with
    squared bound ``lorentz_sq_bound``.
    """
    pieces = tuple(piece for rep in reps for piece in rep.pieces)
    if not is_row_disjoint(*pieces):
        raise ValueError("pieces share a row")
    norms = tuple(norm for rep in reps for norm in rep.norms_sq)
    bound = Fraction(lorentz_sq_bound)
    if not lorentz_le_sq(norms, bound, p):
        raise ValueError("piece seminorms break the Lorentz bound")
    certs = tuple(cert for rep in reps for cert in rep.certs)
    return DisjointRep(pieces, certs, norms, p, bound)


@dataclass(frozen=True, slots=True)
class MergeResult:
    """Selected subsequence, its concatenation, and the block structure.

    The concatenated seminorms pass both routes to the gauge-2 claim:
    the block conditions at the recorded breakpoints (each selected
    representative is one block) and the direct weak-Lorentz test with
    squared bound 4.  Halving gives an honest unit member.
    """

    selected: tuple[int, ...]
    merged: DisjointRep
    breakpoints: tuple[int, ...]

    def half_sum(self) -> DisjointRep:
        """The merged representative halved, at Lorentz bound 1.

        Halving is exact: pieces and hull scales are halved, and the
        seminorm squares are divided by 4.  So only the Lorentz test at
        bound 1 is new; a caller that did not build ``merged`` itself
        checks the result with ``is_unit_member``.
        """
        merged = self.merged
        norms = tuple(v / 4 for v in merged.norms_sq)
        if not lorentz_le_sq(norms, 1, merged.p):
            raise ValueError("piece seminorms break the Lorentz bound")
        return DisjointRep(
            tuple(pc.scale(Fraction(1, 2)) for pc in merged.pieces),
            tuple(HullCertificate(c.seqs, c.weights, c.scale / 2) for c in merged.certs),
            norms,
            merged.p,
            Fraction(1),
        )


def merge_representatives(reps: Sequence[DisjointRep], p: LorentzParam) -> MergeResult:
    """Greedy subsequence whose concatenation has Lorentz bound 2.

    A candidate is kept when its largest piece seminorm is at most
    L^(-1/p) for L the total length already selected (the first is kept
    unconditionally).  The summed element of the merged representative
    then has gauge at most 2, and the same holds for every prefix of
    the selection.

    Each input must pass ``is_unit_member``.  The merged representative
    is their ``join_disjoint_reps`` at squared Lorentz bound 4, after the
    block conditions are checked.
    """
    reps = tuple(reps)
    if not reps:
        raise ValueError("no representatives")
    if not is_row_disjoint(*(r.element() for r in reps)):
        raise ValueError("representatives share a row")
    for r in reps:
        if not r.pieces:
            raise ValueError("empty representative")
        if not r.is_unit_member():
            raise ValueError("representative is not a unit member")
    selected = []
    breaks = [0]  # the total length selected, after each selection
    for idx, rep in enumerate(reps):
        length = breaks[-1]
        # max_norm <= length^(-1/p), exactly (max_norm_sq)^num * L^(2 den) <= 1
        if length == 0 or rep.max_norm_sq() ** p.num * length ** (2 * p.den) <= 1:
            selected.append(idx)
            breaks.append(length + rep.length)
    norms = [norm for idx in selected for norm in reps[idx].norms_sq]
    if not block_conditions_sq(norms, breaks, p):
        raise AssertionError("greedy selection broke the block conditions")
    merged = join_disjoint_reps([reps[idx] for idx in selected], p, 4)
    return MergeResult(tuple(selected), merged, tuple(breaks))


# -- splitting hull elements ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class SplitResult:
    """x = remainder + sum of slices, slices certified small in gauge.

    The remainder keeps one tail representative per input representative,
    all of whose piece seminorm squares pass the smallness test
    (norm_sq)^(4 num) <= eps^den.  Slice t carries its own flat-average
    decomposition certificate over the expanded generator multiset.
    """

    epsilon: Fraction
    p: LorentzParam
    weights: tuple[Fraction, ...]
    orders: tuple[tuple[int, ...], ...]  # per rep: piece order, big first
    front_count: int  # r = floor(eps^(-1/8))
    slices: tuple[TriVector, ...]
    slice_gens: tuple[tuple[GridSeq, ...], ...]
    slice_certs: tuple[DecompositionCertificate, ...]
    tail_reps: tuple[DisjointRep, ...]
    remainder: TriVector
    gauge_bound: Fraction  # sum of slice scales; to the 8th at most 5^8 eps

    def validate(self, reps: Sequence[DisjointRep]) -> None:
        """Recheck every split guarantee exactly against the input
        representatives; raise AssertionError at the first that fails."""
        eps, p = self.epsilon, self.p
        if self.front_count != iroot(int(1 / eps), 8):
            raise AssertionError("front window is not floor(eps^(-1/8))")
        if any(a <= 0 for a in self.weights) or sum(self.weights, Fraction(0)) > 1:
            raise AssertionError("weights are not positive and subconvex")
        element = _weighted_sum(
            (piece, a) for a, rep in zip(self.weights, reps) for piece in rep.pieces
        )
        if element.sup_norm() > eps:
            raise AssertionError("sup of the element exceeds eps")
        recombined = _weighted_sum((v, 1) for v in (self.remainder, *self.slices))
        if recombined != element:
            raise AssertionError("front plus remainder does not reassemble the element")
        for gens, vec, cert in zip(self.slice_gens, self.slices, self.slice_certs):
            if average_indicators(gens) != vec:
                raise AssertionError("slice is not the average of its generators")
            cert.validate(gens)
        if self.gauge_bound != sum((c.scale for c in self.slice_certs), Fraction(0)):
            raise AssertionError("gauge bound is not the sum of slice scales")
        if self.gauge_bound**8 > 5**8 * eps:
            raise AssertionError("gauge bound above 5 eps^(1/8)")
        for tail in self.tail_reps:
            if not tail.is_unit_member():
                raise AssertionError("tail representative is not a unit member")
            if any(ns ** (4 * p.num) > eps**p.den for ns in tail.norms_sq):
                raise AssertionError("tail piece seminorm above eps^(1/(8p))")


def _exact_combination(cert: HullCertificate, piece: TriVector) -> list[tuple[GridSeq, Fraction]]:
    """Weighted sequences reproducing the piece exactly, or raise."""
    if cert.combination() != piece:
        raise ValueError("piece is not an exact hull combination")
    return [(s, w * cert.scale) for s, w in zip(cert.seqs, cert.weights) if w]


def split_element(
    weights: Sequence[Rational],
    reps: Sequence[DisjointRep],
    epsilon: Rational,
    p: LorentzParam,
) -> SplitResult:
    """Split sum w_l * rep_l into gauge-small front plus seminorm-small tail.

    Requires 0 < eps < 1, convex weights, nonnegative pieces certified as
    exact hull combinations, and sup of the summed element at most eps.
    """
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("need 0 < eps < 1")
    alphas = tuple(Fraction(w) for w in weights)
    reps = tuple(reps)
    if len(alphas) != len(reps):
        raise ValueError("one weight per representative")
    if any(a <= 0 for a in alphas) or sum(alphas, Fraction(0)) > 1:
        raise ValueError("weights must be positive with sum at most 1")
    for rep in reps:
        if not rep.is_unit_member():
            raise ValueError("representative is not a unit member")
        for piece in rep.pieces:
            if not piece.is_nonnegative() and not piece.is_zero():
                raise ValueError("pieces must be nonnegative")
    element = _weighted_sum((piece, a) for a, rep in zip(alphas, reps) for piece in rep.pieces)
    if element.sup_norm() > eps:
        raise ValueError("sup of the element exceeds eps")

    r = iroot(int(1 / eps), 8)
    # Stable order, big pieces (norm_sq above eps^(1/(4p))) first.
    orders = []
    for rep in reps:
        idx = sorted(range(rep.length), key=lambda i: (-rep.norms_sq[i], i))
        orders.append(tuple(idx))
        for pos, i in enumerate(idx):
            if pos >= r and rep.norms_sq[i] ** (4 * p.num) > eps**p.den:
                raise AssertionError("big piece beyond the front window")

    slices: list[TriVector] = []
    slice_gens: list[tuple[GridSeq, ...]] = []
    slice_certs: list[DecompositionCertificate] = []
    total_scale = Fraction(0)
    for t in range(r):
        terms: dict[GridSeq, Fraction] = {}
        front = [
            (a, rep.pieces[order[t]], rep.certs[order[t]])
            for a, rep, order in zip(alphas, reps, orders)
            if t < rep.length
        ]
        for a, piece, cert in front:
            for seq, w in _exact_combination(cert, piece):
                terms[seq] = terms.get(seq, Fraction(0)) + a * w
        vec = _weighted_sum((piece, a) for a, piece, _ in front)
        if vec.is_zero():
            continue
        q = lcm(*(f.denominator for f in terms.values()))
        gens: list[GridSeq] = []
        for seq, gamma in sorted(terms.items(), key=lambda kv: kv[0].m):
            gens.extend([seq] * int(gamma * q))
        gens.extend([ZERO_SEQ] * (q - len(gens)))
        cert = _decompose_average(gens, eps, p)  # SplitResult.validate checks it and the average
        slices.append(vec)
        slice_gens.append(tuple(gens))
        slice_certs.append(cert)
        total_scale += cert.scale

    # a tail is a sub-selection of a representative that passed the gate;
    # SplitResult.validate checks it once, with is_unit_member
    tail_reps = []
    for rep, order in zip(reps, orders):
        keep = order[r:]
        tail = DisjointRep(
            tuple(rep.pieces[i] for i in keep),
            tuple(rep.certs[i] for i in keep),
            tuple(rep.norms_sq[i] for i in keep),
            p,
            Fraction(1),
        )
        tail_reps.append(tail)
    remainder = _weighted_sum(
        (piece, a) for a, tail in zip(alphas, tail_reps) for piece in tail.pieces
    )

    result = SplitResult(
        eps,
        p,
        alphas,
        tuple(orders),
        r,
        tuple(slices),
        tuple(slice_gens),
        tuple(slice_certs),
        tuple(tail_reps),
        remainder,
        total_scale,
    )
    result.validate(reps)
    return result

