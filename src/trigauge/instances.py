"""Deterministic instance families for the sweep suites.

Every sampler takes an explicit random.Random, so a (suite, seed, trial)
triple regenerates its instance bit for bit.  Instances satisfy their
family's preconditions by construction; the suites re-check anyway.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, isqrt

from .core import LorentzParam, TriVector, _weighted_sum
from .decompose import DisjointRep, make_disjoint_rep
from .generators import ZERO_SEQ, GridSeq, HullCertificate

Vector = tuple[Fraction, ...]

# sampler sizes: the largest draw of each family
SUBSET_MAX_LEN = 64
MATRIX_MAX_DEPTH, MATRIX_MAX_COLS = 20, 20
KDISJOINT_MAX_K, KDISJOINT_MAX_N, KDISJOINT_MAX_COORD = 5, 50, 60
BLOCKED_MAX_LEN, BLOCKED_MAX_BLOCKS = 60, 5
UNIT_VECTOR_MAX_LEN = 8
BODY_MAX_ROW = 8
SPLIT_MAX_ROW = 12
MERGE_COUNT = 50


def subset_values(rng: random.Random, length: int | None = None) -> list[Fraction]:
    """Values in [0, 1] with total above 1, for the subset selector; the
    length is drawn from 2..SUBSET_MAX_LEN unless given."""
    if length is None:
        length = rng.randint(2, SUBSET_MAX_LEN)
    values = [Fraction(rng.randint(0, 32), 32) for _ in range(length)]
    if sum(values) <= 1:
        # force feasibility: one full entry plus one positive companion,
        # unless the draw already held a second full entry
        values[rng.randrange(length)] = Fraction(1)
        other = rng.randrange(length - 1)
        companion = other if values[other] != 1 else length - 1
        if values[companion] != 1:
            values[companion] += Fraction(1, 32)
    return values


def sorted_unit_matrix(rng: random.Random) -> tuple[tuple[Fraction, ...], ...]:
    """Columns of a [0, 1] matrix, each sorted nonincreasing."""
    cols = []
    for _ in range(rng.randint(1, MATRIX_MAX_COLS)):
        depth = rng.randint(1, MATRIX_MAX_DEPTH)
        col = sorted((rng.randint(0, 16) for _ in range(depth)), reverse=True)
        cols.append(tuple(Fraction(k, 16) for k in col))
    return tuple(cols)


def kdisjoint_family(rng: random.Random) -> tuple[int, list[Vector]]:
    """At most k members nonzero per coordinate, each in the l2 unit ball."""
    k = rng.randint(1, KDISJOINT_MAX_K)
    n = rng.randint(1, KDISJOINT_MAX_N)
    coords = rng.randint(1, KDISJOINT_MAX_COORD)
    owned: list[list[int]] = [[] for _ in range(n)]
    for c in range(coords):
        for i in rng.sample(range(n), min(k, n)):
            if rng.random() < 0.7:
                owned[i].append(c)
    vectors = []
    for mine in owned:
        entries = [Fraction(0)] * coords
        if mine:
            d = isqrt(len(mine) - 1) + 1  # ceil sqrt keeps the ball exact
            for c in mine:
                entries[c] = Fraction(rng.randint(-8, 8), 8 * d)
        vectors.append(tuple(entries))
    return k, vectors


def covered_generators(
    rng: random.Random,
    epsilon: Fraction,
    max_m: int = 200,
    max_row: int = 50,
    max_waves: int = 4,
) -> list[GridSeq]:
    """Family whose averaged indicator has sup at most epsilon.

    Waves of row-disjoint sequences bound the coverage of every
    coordinate by the wave count; zero sequences pad the family until
    that count is at most epsilon * M.
    """
    per = ceil(1 / epsilon)
    if per > max_m:
        raise ValueError(f"max_m={max_m} cannot host epsilon={epsilon} families")
    waves = rng.randint(1, max(1, min(max_waves, max_m // per)))
    seqs: list[GridSeq] = []
    for _ in range(waves):
        width = min(12, max_row, max(1, max_m // waves))
        chosen = rng.sample(range(1, max_row + 1), rng.randint(1, width))
        multi = sorted(i for i in chosen if i > 1)
        if 1 in chosen:
            seqs.append(GridSeq((1,)))
        pos = 0
        while pos < len(multi):
            take = rng.randint(1, min(3, len(multi) - pos))
            group = multi[pos : pos + take]
            pos += take
            counts = [0] * group[-1]
            for i in group:
                cap = i if take == 1 else max(1, i // 2)
                counts[i - 1] = rng.randint(1, cap)
            seqs.append(GridSeq(counts))
    target = max(len(seqs), waves * per)
    seqs += [ZERO_SEQ] * (target - len(seqs))
    return seqs


def blocked_squares(rng: random.Random) -> tuple[list[Fraction], tuple[int, ...]]:
    """Squared values passing the block conditions at the breakpoints.

    Within block k+1 the j-th entry sits under 1/max(j, n_k)^2, which
    keeps the blockwise weak-Lorentz norm at 1 and the tail entries
    under n_k^(-1/p); the whole sequence need not stay under 1.
    """
    nblocks = rng.randint(1, BLOCKED_MAX_BLOCKS)
    lengths = [rng.randint(1, max(1, BLOCKED_MAX_LEN // nblocks)) for _ in range(nblocks)]
    breaks = [0]
    for ln in lengths:
        breaks.append(breaks[-1] + ln)
    values: list[Fraction] = []
    for k in range(nblocks):
        n_k = breaks[k]
        for j in range(1, lengths[k] + 1):
            cap = Fraction(1, max(j, n_k) ** 2)
            values.append(Fraction(rng.randint(0, 16), 16) * cap)
    return values, tuple(breaks)


def unit_vector(rng: random.Random) -> Vector:
    """Exact-unit rational vector with support in the first
    UNIT_VECTOR_MAX_LEN slots.

    Resamples small integer tuples until the squared sum is a perfect
    square; zeroing the first four slots part of the time exercises the
    tail branch of the quotient witness.
    """
    while True:
        length = rng.randint(2, UNIT_VECTOR_MAX_LEN)
        g = [rng.randint(-9, 9) for _ in range(length)]
        if length > 4 and rng.random() < 0.4:
            g[:4] = [0, 0, 0, 0]
        total = sum(v * v for v in g)
        root = isqrt(total)
        if total and root * root == total:
            return tuple(Fraction(v, root) for v in g)


def _single_row_seq(rng: random.Random, i: int) -> GridSeq:
    counts = [0] * i
    counts[i - 1] = rng.randint(1, i)
    return GridSeq(counts)


def _scaled_rep(scaled: list[tuple[GridSeq, Fraction]], p: LorentzParam) -> DisjointRep:
    """Representative with one piece s * indicator(seq) per (seq, s) pair."""
    pieces = [seq.indicator().scale(s) for seq, s in scaled]
    certs = [HullCertificate((seq,), (Fraction(1),), s) for seq, s in scaled]
    return make_disjoint_rep(pieces, p, certs=certs)


def body_element(
    rng: random.Random, p: LorentzParam
) -> tuple[TriVector, tuple[Fraction, ...], tuple[DisjointRep, ...]]:
    """Signed element of the unit body as a certified convex combination.

    The representatives stay nonnegative so their certificates dominate;
    sign flips on the final vector are covered by solidity.
    """
    reps = []
    for _ in range(rng.randint(1, 3)):
        rows = sorted(rng.sample(range(1, BODY_MAX_ROW + 1), rng.randint(1, 3)))
        scaled = [
            (_single_row_seq(rng, i), Fraction(rng.randint(1, 8), 8 * rank))  # at most 1/rank
            for rank, i in enumerate(rows, start=1)
        ]
        reps.append(_scaled_rep(scaled, p))
    raw = [rng.randint(1, 4) for _ in reps]
    total = sum(raw)
    weights = tuple(Fraction(a, total) for a in raw)
    element = _weighted_sum((piece, w) for w, rep in zip(weights, reps) for piece in rep.pieces)
    signed = TriVector(
        {
            cell: -v if rng.random() < 0.3 else v
            for cell, v in element.items()
        }
    )
    return signed, weights, tuple(reps)


# scaled ratios strictly inside the rank-2 and rank-3 budgets, checked
# exactly in the tests: (5/8)^3 * 4 < 1 and (12/25)^3 * 9 < 1
SAFE_RANK2 = (Fraction(1, 2), Fraction(3, 5), Fraction(5, 8))
SAFE_RANK3 = (Fraction(1, 4), Fraction(2, 5), Fraction(12, 25))
# full-row scale ratios strictly inside the two-row refinement band
BAND_RATIOS = (
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(5, 6),
    Fraction(1),
    Fraction(7, 6),
    Fraction(5, 4),
    Fraction(10, 7),
)


def _full_row(i: int) -> TriVector:
    return GridSeq((0,) * (i - 1) + (i,)).indicator()


def _flip_cells(rng: random.Random, x: TriVector) -> TriVector:
    return TriVector(
        {cell: -v if rng.random() < 0.3 else v for cell, v in x.items()}
    )


def micro_instance(rng: random.Random) -> tuple[TriVector, bool]:
    """Instance for the two-sided enclosure; flag marks unit-vector cases.

    Families rotate through the shapes the enclosure is known to close:
    single rows, scaled indicators, dominated row-disjoint sums, paired
    full rows inside the refinement band, and unit indicators.
    """
    kind = rng.choices(range(5), weights=(25, 25, 20, 15, 15))[0]
    if kind == 0:
        i = rng.randint(1, 3)
        entries = {}
        for j in rng.sample(range(1, i + 1), rng.randint(1, i)):
            entries[(i, j)] = Fraction(rng.randint(-16, 16), 8)
        return TriVector(entries), False
    if kind == 1:
        i = rng.randint(1, 3)
        scale = Fraction(rng.randint(1, 16), 8)
        return _flip_cells(rng, _single_row_seq(rng, i).indicator().scale(scale)), False
    if kind == 2:
        rows = sorted(rng.sample((1, 2, 3), rng.randint(2, 3)))
        top = Fraction(rng.randint(1, 16), 8)
        ratios = (Fraction(1), rng.choice(SAFE_RANK2), rng.choice(SAFE_RANK3))
        x = TriVector()
        for rank, i in enumerate(rng.sample(rows, len(rows)), start=1):
            x = x + _single_row_seq(rng, i).indicator().scale(top * ratios[rank - 1])
        return _flip_cells(rng, x), False
    if kind == 3:
        lo, hi = sorted(rng.sample((1, 2, 3), 2))
        a = Fraction(rng.randint(1, 12), 8)
        b = a * rng.choice(BAND_RATIOS)
        return _full_row(lo).scale(a) + _full_row(hi).scale(b), False
    return _full_row(rng.randint(1, 3)), True


def split_instance(
    rng: random.Random, p: LorentzParam, epsilon: Fraction
) -> tuple[tuple[Fraction, ...], tuple[DisjointRep, ...]]:
    """Weighted representatives whose sum has sup at most epsilon.

    Piece scales stay at or below epsilon so the sup bound holds for any
    convex weights; denominators stay small so the slice expansions keep
    their generator multisets manageable.
    """
    reps = []
    for _ in range(rng.randint(1, 2)):
        rows = sorted(rng.sample(range(1, SPLIT_MAX_ROW + 1), rng.randint(1, 3)))
        scaled = [
            (_single_row_seq(rng, i), Fraction(rng.randint(1, 8), 8) * epsilon) for i in rows
        ]
        reps.append(_scaled_rep(scaled, p))
    weights = tuple(Fraction(rng.randint(1, 4), 8) for _ in reps)
    return weights, tuple(reps)


def merge_family(rng: random.Random, p: LorentzParam) -> list[DisjointRep]:
    """MERGE_COUNT row-disjoint single-piece representatives with
    decreasing seminorms.

    Representative t has seminorm at most 1/(t+1), under the greedy
    threshold at every step, so the merge keeps the whole family.
    """
    rows = rng.sample(range(1, MERGE_COUNT + 1), MERGE_COUNT)
    reps = []
    for t, i in enumerate(rows):
        scale = Fraction(rng.randint(4, 8), 8 * (t + 1))
        seq = GridSeq((0,) * (i - 1) + (i,))
        reps.append(_scaled_rep([(seq, scale)], p))
    return reps
