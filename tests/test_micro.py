"""Tests for the refining gauge enclosure on small supports."""

import functools
import gc
import hashlib
import itertools
import random
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigauge import lp, micro
from trigauge.core import (
    DEFAULT_P,
    LorentzParam,
    TriVector,
    lorentz_l2_constant,
    row_norm_sq,
)
from trigauge.decompose import DisjointRep, join_disjoint_reps, make_disjoint_rep
from trigauge.exact import sqrt_enclosure
from trigauge.gauge import GaugeLowerWitness, gauge_interval
from trigauge.generators import GridSeq, HullCertificate, enumerate_grid_seqs
from trigauge.micro import (
    BITS,
    Cell,
    DEFAULT_TOL,
    SUPPORT_ROW_CAP,
    ToleranceUnreachableError,
    _budget_sq,
    _ceiling,
    _element_key,
    _floor_frac,
    _joined,
    _pattern_atoms,
    _patterns,
    tau_micro_oracle,
)

from dense_lp import dense_column, solve_dense

P = DEFAULT_P
C_HI = lorentz_l2_constant(P).hi

# independent high-precision values (mpmath, 30 digits), b_k = k**(-2/3):
#   2 / (1 + b_2), (7/4) / (1 + b_2), 3 / (2 (1 + b_2 + b_3))
MIXED_VALUE = F("1.227023580871381258086914")
BAND_VALUE = F("1.07364563326245860082605")
UNIFORM_VALUE = F("0.7106612129230625927777643")

EPS = F(1, 10**9)


def full_row(i):
    return GridSeq((0,) * (i - 1) + (i,)).indicator()


def contains(iv, value):
    return iv.lo - EPS <= value <= iv.hi + EPS


class TestCheapPath:
    def test_zero(self):
        iv = tau_micro_oracle(TriVector(), P)
        assert iv.lo == iv.hi == 0

    def test_single_cell(self):
        iv = tau_micro_oracle(TriVector({(1, 1): F(1)}), P)
        assert iv.lo == iv.hi == 1

    def test_scaled_indicator_is_point(self):
        # the sup floor and the hull bound meet at the scale
        iv = tau_micro_oracle(full_row(2).scale(F(3, 7)), P)
        assert iv.lo == iv.hi == F(3, 7)

    def test_unit_indicators_pin_to_one(self):
        for i in (1, 2, 3):
            iv = tau_micro_oracle(full_row(i), P)
            assert iv.lo == iv.hi == 1
            assert 1 / C_HI <= iv.lo

    def test_disjoint_scaled_sum_takes_max(self):
        # second scale stays under the rank-2 budget: 5/8 < 2**(-2/3),
        # so x / (3/5) is already a unit member and the sup matches
        x = full_row(1).scale(F(3, 5)) + full_row(2).scale(F(3, 8))
        iv = tau_micro_oracle(x, P)
        assert iv.lo == iv.hi == F(3, 5)

    def test_witnesses_validate(self):
        x = full_row(2).scale(F(3, 7))
        iv = tau_micro_oracle(x, P)
        iv.upper.validate(x)
        iv.lower.validate(x)


class TestRefinement:
    def test_two_full_rows(self):
        # one cell over the rank-2 budget forces the refinement loop;
        # closed form: (1 + 1) / (1 + 2**(-2/3))
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        iv = tau_micro_oracle(x, P)
        assert iv.hi - iv.lo <= DEFAULT_TOL
        assert contains(iv, MIXED_VALUE)
        iv.upper.validate(x)
        iv.lower.validate(x)

    def test_band_scales(self):
        # rows 1 and 3 at scales 3/4 and 1: (3/4 + 1) / (1 + 2**(-2/3))
        x = full_row(1).scale(F(3, 4)) + full_row(3)
        iv = tau_micro_oracle(x, P)
        assert iv.hi - iv.lo <= DEFAULT_TOL
        assert contains(iv, BAND_VALUE)

    def test_three_row_uniform(self):
        # all cells at 1/2: 3 / (2 (1 + 2**(-2/3) + 3**(-2/3)))
        x = TriVector({(i, j): F(1, 2) for i in range(1, 4) for j in range(1, i + 1)})
        iv = tau_micro_oracle(x, P)
        assert iv.hi - iv.lo <= DEFAULT_TOL
        assert contains(iv, UNIFORM_VALUE)

    def test_refined_interval_inside_cheap_interval(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        cheap = gauge_interval(x, P)
        iv = tau_micro_oracle(x, P)
        assert cheap.lo <= iv.lo <= iv.hi <= cheap.hi

    def test_negative_entries_match_modulus(self):
        x = TriVector({(1, 1): F(-1), (2, 1): F(1), (2, 2): F(-1)})
        iv = tau_micro_oracle(x, P)
        assert contains(iv, MIXED_VALUE)

    def test_loose_tolerance_stops_early(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        iv = tau_micro_oracle(x, P, tol=F(1, 2))
        assert iv.hi - iv.lo <= F(1, 2)

    def test_lower_witness_is_dual(self):
        # the cheap sup floor gives 1 here, so the dual route must be the
        # one that closes the gap
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        iv = tau_micro_oracle(x, P)
        assert iv.lower.kind == "dual"
        assert iv.lower.value > 1


class TestValidationErrors:
    def test_support_row_cap(self):
        x = TriVector({(4, 1): F(1)})
        with pytest.raises(ValueError, match="support reaches row 4"):
            tau_micro_oracle(x, P)

    def test_cap_matches_constant(self):
        x = TriVector({(SUPPORT_ROW_CAP, 1): F(1, 2)})
        tau_micro_oracle(x, P)  # at the cap is fine

    def test_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            tau_micro_oracle(TriVector({(1, 1): F(1)}), P, tol=F(0))
        with pytest.raises(ValueError):
            tau_micro_oracle(TriVector({(1, 1): F(1)}), P, tol=F(-1, 10))

    def test_tampered_dual_witness_caught(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        iv = tau_micro_oracle(x, P)
        w = iv.lower
        bad = GaugeLowerWitness(w.value * 2, w.kind, w.detail, w.ceiling)
        with pytest.raises(AssertionError, match="does not reach"):
            bad.validate(x)

    def test_shrunken_dual_ceiling_caught(self):
        # value * ceiling is unchanged, so only the re-derived ceiling catches it
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        w = tau_micro_oracle(x, P).lower
        assert w.kind == "dual"
        forged = GaugeLowerWitness(w.value * 1000, w.kind, w.detail, w.ceiling / 1000, w.p)
        with pytest.raises(AssertionError, match="certified dual bound"):
            forged.validate(x)

    def test_dual_cells_checked(self):
        x = TriVector({(4, 1): F(1), (1, 1): F(1)})
        past_cap = GaugeLowerWitness(F(1, 2), "dual", (((4, 1),), (F(1),)), F(1))
        with pytest.raises(AssertionError, match="rows 1..3"):
            past_cap.validate(x)
        repeated = GaugeLowerWitness(F(1, 2), "dual", (((1, 1), (1, 1)), (F(1), F(1))), F(1))
        with pytest.raises(AssertionError, match="repeat"):
            repeated.validate(x)

    def test_negative_dual_weights_caught(self):
        bad = GaugeLowerWitness(
            F(1, 2), "dual", (((1, 1),), (F(-1),)), F(1)
        )
        with pytest.raises(AssertionError, match="nonnegative"):
            bad.validate(TriVector({(1, 1): F(1)}))


class TestUnreachable:
    def test_zero_rounds_reports_cheap_interval(self, monkeypatch):
        # the seed's cover weights none of its own members here, and no
        # pricing round runs
        x = TriVector(FAILING_SUPPORTS[1])
        cheap = gauge_interval(x, P)
        monkeypatch.setattr(micro, "PRICING_ROUNDS", 0)
        with pytest.raises(ToleranceUnreachableError) as info:
            tau_micro_oracle(x, P)
        err = info.value
        assert err.rounds == 0
        assert err.tol == DEFAULT_TOL
        assert err.interval.lo == cheap.lo
        assert err.interval.hi == cheap.hi
        assert err.interval.lo <= err.interval.hi
        err.interval.upper.validate(x)
        err.interval.lower.validate(x)

    def test_message_names_the_gap(self, monkeypatch):
        x = TriVector(FAILING_SUPPORTS[0])
        monkeypatch.setattr(micro, "PRICING_ROUNDS", 0)
        with pytest.raises(ToleranceUnreachableError, match="after 0 pricing rounds"):
            tau_micro_oracle(x, P)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_pricing_budget_ends_in_error(self, monkeypatch, budget):
        # the first fixed failing support needs three pricing rounds
        x = TriVector(FAILING_SUPPORTS[0])
        cheap = gauge_interval(x, P)
        monkeypatch.setattr(micro, "PRICING_ROUNDS", budget)
        with pytest.raises(ToleranceUnreachableError) as info:
            tau_micro_oracle(x, P)
        err = info.value
        assert err.rounds == budget
        assert cheap.lo <= err.interval.lo <= err.interval.hi <= cheap.hi
        err.interval.upper.validate(x)
        err.interval.lower.validate(x)


class TestDeterminism:
    def test_identical_runs_identical_bounds(self):
        x = TriVector({(1, 1): F(1), (2, 1): F(1), (2, 2): F(1)})
        a = tau_micro_oracle(x, P)
        b = tau_micro_oracle(x, P)
        assert a.lo == b.lo and a.hi == b.hi
        assert a.lower.value == b.lower.value
        assert a.upper.scale == b.upper.scale


class TestPatterns:
    def test_three_row_count(self):
        # partitions of three rows weighted by rank orderings: 1 + 6 + 6
        assert len(_patterns((1, 2, 3))) == 13

    def test_single_row_count(self):
        assert len(_patterns((1,))) == 1


@st.composite
def small_vectors(draw):
    cells = draw(
        st.dictionaries(
            st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(
                lambda ij: ij[0] >= ij[1]
            ),
            st.fractions(min_value=F(-2), max_value=F(2), max_denominator=12),
            max_size=4,
        )
    )
    return TriVector(cells)


class TestSoundness:
    @settings(max_examples=25, deadline=None)
    @given(small_vectors())
    def test_enclosure_inside_cheap_bounds(self, x):
        cheap = gauge_interval(x, P)
        try:
            iv = tau_micro_oracle(x, P, tol=F(1, 4))
        except ToleranceUnreachableError as err:
            iv = err.interval
        assert cheap.lo <= iv.lo <= iv.hi <= cheap.hi
        iv.upper.validate(x)
        iv.lower.validate(x)




# -- the ceiling against a per-slot evaluation ---------------------------------


def ceiling_reference(
    y: Mapping[Cell, F],
    rows: tuple[int, ...],
    zero: F,
    budget: Callable[[int], F],
    sqrt_hi: Callable[[F], F],
) -> F:
    """The micro ceiling as it was before row groups were shared across
    ranks, verbatim but for its name, this docstring and its number
    annotations: each (group, rank) slot is evaluated from scratch.
    ``micro._ceiling`` must reproduce it exactly."""
    key_cache: dict[tuple[tuple[int, ...], int], F] = {}

    def key_bound(group: tuple[int, ...], rank: int) -> F:
        cached = key_cache.get((group, rank))
        if cached is not None:
            return cached
        cells = [c for c in y if c[0] in group and y[c] > 0]
        if not cells:
            key_cache[group, rank] = zero
            return zero
        hull = zero
        for seq in gens_on_reference(group):
            m = seq.m
            val = sum(
                (y[c] for c in cells if c[0] <= len(m) and c[1] <= m[c[0] - 1]),
                zero,
            )
            hull = max(hull, val)
        # Pieces stay within [0, 1] per cell, so a row contributes at most
        # its y mass; through the seminorm ball it contributes at most
        # beta * i * max(y on the row).  Minimize over which rows take
        # the mass route.
        row_mass: dict[int, F] = {}
        row_peak: dict[int, F] = {}
        for (i, _), w in ((c, y[c]) for c in cells):
            row_mass[i] = row_mass.get(i, zero) + w
            row_peak[i] = max(row_peak.get(i, zero), w)
        beta = budget(rank)
        active = sorted(row_mass)
        capped = None
        for size in range(len(active) + 1):
            for taken in itertools.combinations(active, size):
                rest_sq = sum(
                    ((i * row_peak[i]) ** 2 for i in active if i not in taken),
                    zero,
                )
                val = sum((row_mass[i] for i in taken), zero)
                if rest_sq:
                    val += beta * sqrt_hi(rest_sq)
                if capped is None or val < capped:
                    capped = val
        bound = min(hull, capped)
        key_cache[group, rank] = bound
        return bound

    best = zero
    for pattern in _patterns(rows):
        total = zero
        for group, rank in pattern:
            total += key_bound(group, rank)
        best = max(best, total)
    return best


def exact_bounds(p: LorentzParam) -> tuple[Callable[[int], F], Callable[[F], F]]:
    """The upper ends of the rank budgets and roots that ``_ceiling`` uses."""
    return (
        lambda rank: micro._budget(rank, p.num, p.den).hi,
        lambda s: sqrt_enclosure(s, BITS).hi,
    )


MICRO_CELLS = [(i, j) for i in range(1, 4) for j in range(1, i + 1)]
CEILING_PS = (DEFAULT_P, LorentzParam(5, 3), LorentzParam(7, 4))

fraction_entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-2, max_value=2, max_denominator=60),
    st.fractions(min_value=F(1, 10**30), max_value=F(1, 10**20), max_denominator=10**31),
)


@st.composite
def ceiling_cases(draw, entries):
    cells = draw(st.lists(st.sampled_from(MICRO_CELLS), min_size=1, max_size=6, unique=True))
    y = {c: draw(entries) for c in cells}  # key order is the drawn, shuffled order
    rows = tuple(sorted({i for i, _ in cells} | set(draw(st.sets(st.integers(1, 3))))))
    return y, rows, draw(st.sampled_from(CEILING_PS))


class TestCeilingIdentity:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(ceiling_cases(fraction_entries), min_size=1, max_size=3))
    def test_fraction_equal(self, cases):
        for y, rows, p in cases:
            got = _ceiling(y, rows, p)
            want = ceiling_reference(y, rows, F(0), *exact_bounds(p))
            assert type(got) is type(want) and got == want


FAILING_SUPPORTS = (
    {(1, 1): F(-7, 8), (2, 1): F(3, 2), (2, 2): F(5, 4), (3, 1): F(1), (3, 3): F(13, 8)},
    {(2, 1): F(3, 4), (2, 2): F(15, 8), (3, 1): F(13, 8), (3, 2): F(-13, 8), (3, 3): F(3, 2)},
)
FAILING_IDS = ["five-cells-rows-1-3", "five-cells-rows-2-3"]
# the bounds both supports stalled at after the weight-grid rounds that
# pricing replaced
FAILING_BOUNDS = (
    (
        F(13, 8),
        F(
            "23660105655013664808457595656872306155000000000"
            "/14068036339914405274197853434677056543954484809"
        ),
    ),
    (F(15, 8), F("165069014933354013982058978061/79228162514264337593543950336")),
)
# a survey draw whose lower end only the candidates after pricing close
LOOSE_BELOW = {(1, 1): F(5, 4), (2, 1): F(3, 8), (2, 2): F(5, 4), (3, 3): F(1, 4)}
# two full rows at 3/4 and 1, as the sandwich suite's band family draws them
BAND_SUPPORT = {(2, 1): F(3, 4), (2, 2): F(3, 4), (3, 1): F(1), (3, 2): F(1), (3, 3): F(1)}


@pytest.mark.parametrize(
    "cells, bounds, gauge",
    zip(FAILING_SUPPORTS, FAILING_BOUNDS, (F(13, 8), F(15, 8))),
    ids=FAILING_IDS,
)
def test_failing_supports_close_at_their_sup(cells, bounds, gauge):
    # pricing closes both at their sup witness, inside the old stall
    x = TriVector(cells)
    iv = tau_micro_oracle(x, P)
    assert (iv.lo, iv.hi) == (gauge, gauge)
    assert iv.lower.kind == "sup"
    iv.upper.validate(x)
    iv.lower.validate(x)
    assert bounds[0] <= iv.lo <= iv.hi <= bounds[1]


def test_each_dual_candidate_certified_once(monkeypatch):
    # the seed's cover and the pricing's last one each offer their duals
    # and the row-uniform duals; only the positive part of a candidate
    # matters, and a repeat is skipped.  A witness's ceiling is the one its
    # validate re-derives, so each distinct candidate costs one ceiling.
    def key(y):
        return tuple(sorted((c, v) for c, v in y.items() if v > 0))

    offered, certified, built, ceilings = [], [], [], []
    best_lower, witness, ceiling = micro._best_lower, micro._dual_witness, micro._ceiling

    def record_offer(lower, candidates, *args):
        offered.extend(candidates)
        return best_lower(lower, candidates, *args)

    def record_witness(y, *args):
        certified.append(key(y))
        out = witness(y, *args)
        if out is not None:
            built.append(out)
        return out

    def record_ceiling(y, rows, p):
        ceilings.append(key(y))
        return ceiling(y, rows, p)

    x = TriVector(LOOSE_BELOW)
    monkeypatch.setattr(micro, "_best_lower", record_offer)
    monkeypatch.setattr(micro, "_dual_witness", record_witness)
    monkeypatch.setattr(micro, "_ceiling", record_ceiling)
    iv = tau_micro_oracle(x, P)
    monkeypatch.undo()
    assert iv.lower.kind == "dual" and iv.lower in built
    assert len(certified) == len(set(certified))
    assert set(certified) == {key(y) for y in offered}
    assert len(offered) > len(certified)
    assert sorted(ceilings) == sorted(k for k in certified if k)
    for w in built:
        w.validate(x)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([(i, j) for i in range(1, 4) for j in range(1, i + 1)]),
        st.fractions(min_value=F(1, 16), max_value=2, max_denominator=16),
        min_size=1,
    ),
    st.sets(st.integers(1, 3)),
)
def test_ceiling_over_touched_rows_matches_active_rows(y, extra):
    # rows no cell of y touches add nothing to the ceiling, so the witness
    # builder's ceiling over the touched rows is the one over x's rows
    touched = {i for i, _ in y}
    assert _ceiling(y, tuple(sorted(touched)), P) == _ceiling(y, tuple(sorted(touched | extra)), P)


# -- the covering-generator walk against the enumeration it replaced ------------


@functools.lru_cache(maxsize=None)
def gens_on_reference(group: tuple[int, ...]) -> tuple[GridSeq, ...]:
    """Nonzero generator sequences supported within the given rows: the
    enumeration ``micro`` covered cells with before the record-pruned
    walk, verbatim but for its name and this docstring."""
    return tuple(seq for seq in enumerate_grid_seqs(group) if seq.m)


def covers_reference(seq: GridSeq, cell: Cell) -> bool:
    i, j = cell
    return i <= len(seq.m) and j <= seq.m[i - 1]


def covered_reference(
    group: tuple[int, ...], cells: tuple[Cell, ...]
) -> tuple[tuple[tuple[int, ...], GridSeq], ...]:
    """``micro._covered`` before the walk: every generator on the group,
    then an inclusion filter over the covered position sets, each with
    the first generator covering it; verbatim but for its name, this
    docstring and the helpers' names."""
    found: dict[tuple[int, ...], GridSeq] = {}
    for seq in gens_on_reference(group):
        found.setdefault(
            tuple(k for k, cell in enumerate(cells) if covers_reference(seq, cell)), seq
        )
    kept = [pos for pos in found if not any(set(pos) < set(o) for o in found)]
    return tuple((pos, found[pos]) for pos in sorted(kept))


def seed_gens_reference(
    group: tuple[int, ...], cells: tuple[Cell, ...]
) -> list[tuple[GridSeq, tuple[Cell, ...]]]:
    """The (generator, covered support cells) list ``_pattern_atoms``
    handed ``_seed_pieces`` before the walk, every generator on the group
    that covers a support cell in enumeration order, less the later
    generators covering the same cells: their pieces are twins of the
    first one's, which ``_seed_pieces`` drops."""
    found: dict[tuple[Cell, ...], GridSeq] = {}
    for seq in gens_on_reference(group):
        if covered := tuple(c for c in cells if covers_reference(seq, c)):
            found.setdefault(covered, seq)
    return [(seq, covered) for covered, seq in found.items()]


ALL_SUPPORTS = [
    tuple(c for k, c in enumerate(MICRO_CELLS) if mask >> k & 1)
    for mask in range(1, 2 ** len(MICRO_CELLS))
]


@pytest.mark.parametrize("cells", ALL_SUPPORTS, ids=str)
def test_covering_walk_matches_the_enumeration(monkeypatch, cells):
    # for every row group of the support: the seed's generator list, as
    # _pattern_atoms hands it to _seed_pieces slot by slot, and the
    # maximal covered sets, same lists in the same order
    rows = tuple(sorted({i for i, _ in cells}))
    slot_groups, seen = [], set()
    for pattern in _patterns(rows):
        for slot in pattern:
            if slot not in seen:
                seen.add(slot)
                slot_groups.append(slot[0])
    handed = []
    seed_pieces = micro._seed_pieces

    def record(rank, p, gens):
        handed.append(gens)
        return seed_pieces(rank, p, gens)

    monkeypatch.setattr(micro, "_seed_pieces", record)
    _pattern_atoms(rows, P, cells)
    assert handed == [seed_gens_reference(group, cells) for group in slot_groups]
    for group in set(slot_groups):
        own = tuple(c for c in cells if c[0] in group)
        assert micro._covered(own) == covered_reference(group, own)


# -- member assembly against the per-combination validation --------------------


def _restrict_cells(x: TriVector, cells: frozenset[Cell]) -> TriVector:
    return TriVector({c: v for c, v in x.items() if c in cells})


def trimmed_pieces_reference(
    group: tuple[int, ...],
    rank: int,
    p: LorentzParam,
    support: frozenset[Cell],
) -> list[tuple[TriVector, HullCertificate]]:
    """``micro._trimmed_pieces``, now ``_seed_pieces``, as it was before
    pieces were certified once per call, verbatim but for its name, this
    docstring and the mixture rounds the seed no longer builds."""
    budget_lo = _budget_sq(rank, p.num, p.den).lo
    gens = [
        (seq, _restrict_cells(seq.indicator(), support)) for seq in gens_on_reference(group)
    ]
    gens = [(seq, piece) for seq, piece in gens if not piece.is_zero()]
    out: list[tuple[TriVector, HullCertificate]] = []

    def push(seqs: tuple[GridSeq, ...], weights: tuple[F, ...], mix: TriVector) -> None:
        nsq = row_norm_sq(mix)
        if nsq <= budget_lo:
            gamma = F(1)
        else:
            gamma = _floor_frac(sqrt_enclosure(budget_lo / nsq, BITS).lo)
            if gamma <= 0:
                return
            mix = mix.scale(gamma)
        out.append((mix, HullCertificate(seqs, weights, gamma)))

    for seq, piece in gens:
        push((seq,), (F(1),), piece)
    return out


def pattern_atoms_reference(
    rows: tuple[int, ...],
    p: LorentzParam,
    support: frozenset[Cell],
) -> list[DisjointRep]:
    """``micro._pattern_atoms`` as it was before pieces were certified once
    per call, verbatim but for its name, this docstring, the name of the
    pieces helper and the earlier rounds it no longer skips: every member
    goes through ``make_disjoint_rep``."""
    seen: dict[tuple, DisjointRep] = {}
    slot_cache: dict[tuple, list] = {}
    for pattern in _patterns(rows):
        slots = []
        for group, rank in pattern:
            cached = slot_cache.get((group, rank))
            if cached is None:
                cached = trimmed_pieces_reference(group, rank, p, support)
                slot_cache[group, rank] = cached
            if cached:
                slots.append(cached)
        if not slots:
            continue
        for combo in itertools.product(*slots):
            total = TriVector()
            for piece, _ in combo:
                total = total + piece
            key = _element_key(total)
            if key in seen:
                continue
            seen[key] = make_disjoint_rep(
                [piece for piece, _ in combo], p, certs=[cert for _, cert in combo]
            )
    return list(seen.values())


def _fields(rep: DisjointRep) -> tuple:
    return (rep.pieces, rep.certs, rep.norms_sq, rep.p, rep.lorentz_sq_bound)


@pytest.mark.parametrize(
    "cells", FAILING_SUPPORTS + (BAND_SUPPORT,), ids=FAILING_IDS + ["band-rows-2-3"]
)
def test_pattern_atoms_match_reference(cells):
    # the seed members, in the order every call pools them
    x = TriVector(cells)
    rows = x.active_rows()
    want = pattern_atoms_reference(rows, P, frozenset(x.support()))
    got = _pattern_atoms(rows, P, x.support())
    # a member is its certified pieces; the oracle joins the ones it uses
    reps = [_joined(pieces, P) for _, pieces, _ in got]
    assert [_fields(rep) for rep in reps] == [_fields(rep) for rep in want]
    assert all(key == _element_key(rep.element()) for (key, _, _), rep in zip(got, reps))
    assert all(rep.is_unit_member() for rep in reps)


@pytest.fixture
def cold_store():
    """An empty process-wide store of support atoms for the test, emptied
    again after it: a store that earlier calls warmed builds and
    certifies nothing, so a count of per-call work would read 0."""
    micro._support_atoms.cache_clear()
    yield
    micro._support_atoms.cache_clear()


def test_cached_member_columns_match_dense_entries(monkeypatch, cold_store):
    # each cover program gets the pool's columns in pool order: the
    # cheap certificate's members, the seed's, then each pricing round's;
    # each must be the dense conversion of the member's
    # dense entries on the support cells
    solves = []
    pool: dict[tuple, TriVector] = {}  # element of each pooled member, in order
    cover, price = micro._cover_program, micro._SupportAtoms.price

    def record_price(self, y):
        found = price(self, y)
        for key, pieces in found.items():
            assert key not in pool
            pool[key] = _joined(pieces, P).element()
        return found

    def record_cover(columns, cells, target, trail):
        solves.append((list(columns), cells, list(pool.values())))
        return cover(columns, cells, target, trail)

    monkeypatch.setattr(micro._SupportAtoms, "price", record_price)
    monkeypatch.setattr(micro, "_cover_program", record_cover)
    for cells in FAILING_SUPPORTS + (BAND_SUPPORT,):
        x = TriVector(cells)
        pool.clear()
        for rep in gauge_interval(x, P).upper.reps:
            pool.setdefault(_element_key(rep.element()), rep.element())
        for key, pieces, _ in micro._support_atoms(x.support(), P.num, P.den).members:
            pool.setdefault(key, _joined(pieces, P).element())
        tau_micro_oracle(x, P)
    assert len(solves) >= 6
    for columns, cells, elems in solves:
        assert len(columns) == len(elems)
        for col, elem in zip(columns, elems):
            dense = [elem.entry(*cell) for cell in cells]
            assert col == dense_column([(k, v) for k, v in enumerate(dense) if v], 1)


def test_only_members_the_cover_uses_are_joined(monkeypatch):
    # the first failing support pools 58 members over its seed and three
    # pricing rounds; only those the seed's cover and the last one weight
    # become DisjointReps, each once per cover
    joined = []
    join = micro.join_disjoint_reps

    def counted(reps, p, bound):
        joined.append(len(reps))
        return join(reps, p, bound)

    monkeypatch.setattr(micro, "join_disjoint_reps", counted)
    tau_micro_oracle(TriVector(FAILING_SUPPORTS[0]), P)
    assert 0 < len(joined) <= 8


@pytest.mark.parametrize(
    "p", (DEFAULT_P, LorentzParam(5, 4), LorentzParam(7, 4)), ids=lambda p: f"p{p.num}_{p.den}"
)
def test_seed_members_join(cold_store, p):
    # nothing checks a seed member as the seed is built: each member's
    # pieces, certified one by one, must pass the join on every support
    for mask in range(1, 2 ** len(MICRO_CELLS)):
        cells = tuple(c for k, c in enumerate(MICRO_CELLS) if mask >> k & 1)
        for key, pieces, _ in micro._support_atoms(cells, p.num, p.den).members:
            reps = [
                make_disjoint_rep(
                    [TriVector({cell: F(num, den) for cell, num, den in piece.key})],
                    p,
                    certs=[piece.cert],
                )
                for piece in pieces
            ]
            rep = join_disjoint_reps(reps, p, 1)
            assert _element_key(rep.element()) == key
        micro._support_atoms.cache_clear()


@pytest.mark.parametrize("cells", FAILING_SUPPORTS, ids=FAILING_IDS)
def test_only_pieces_of_joined_members_are_certified(monkeypatch, cold_store, cells):
    # the first failing support certifies 19 pieces for 8 joined members
    # of at most three pieces each, the second 8 pieces for 5 members
    certified, joined = [], []
    certify, join = micro.make_disjoint_rep, micro.join_disjoint_reps

    def counted_certify(pieces, *args, **kwargs):
        certified.append(pieces)
        return certify(pieces, *args, **kwargs)

    def counted_join(reps, p, bound):
        joined.append(len(reps))
        return join(reps, p, bound)

    monkeypatch.setattr(micro, "make_disjoint_rep", counted_certify)
    monkeypatch.setattr(micro, "join_disjoint_reps", counted_join)
    tau_micro_oracle(TriVector(cells), P)
    assert len(certified) <= sum(joined) <= 24
    assert bool(certified) == bool(joined)


def count_pivots(solve, *args):
    """solve(*args) and the number of simplex pivots it made, counted as
    calls of the solver's inner ``do_pivot``."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "do_pivot" and code.co_filename == lp.__file__:
            calls += 1

    sys.setprofile(hook)
    try:
        out = solve(*args)
    finally:
        sys.setprofile(None)
    return out, calls


def test_cover_rounds_resume_the_previous_path(monkeypatch):
    # each pricing round's cover program extends the last one; on the
    # first failing support a solve from the start repeats most of the
    # previous solve's pivots, and the resumed solves make only the new ones
    resumed, cold = [], []
    solve = micro.solve_lp

    def both(columns, rhs, trail):
        got, pivots = count_pivots(solve, columns, rhs, trail)
        want, cold_pivots = count_pivots(solve, columns, rhs)
        assert got == want
        resumed.append(pivots)
        cold.append(cold_pivots)
        return got

    monkeypatch.setattr(micro, "solve_lp", both)
    tau_micro_oracle(TriVector(FAILING_SUPPORTS[0]), P)
    assert cold == [30, 30, 33, 36]
    assert resumed == [30, 15, 3, 3]


def test_caught_error_keeps_no_working_set(monkeypatch):
    # the error's traceback must not keep the refinement's pool and pieces
    # alive; a first call fills the caches every call shares
    monkeypatch.setattr(micro, "PRICING_ROUNDS", 1)
    x = TriVector(FAILING_SUPPORTS[0])
    with pytest.raises(ToleranceUnreachableError):
        tau_micro_oracle(x, P)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            tau_micro_oracle(x, P)
        except ToleranceUnreachableError as err:
            caught = err
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert caught.rounds == micro.PRICING_ROUNDS
    assert held < 100_000


# -- the process-wide store of support atoms -------------------------------------

FULL_SUPPORT = tuple(MICRO_CELLS)  # every cell of rows 1..3, sorted


def test_seed_is_built_once_per_support(cold_store):
    # every call on the support gets the same store, and pricing on it
    # leaves the seed as a fresh build gives it
    cells = tuple(sorted(FAILING_SUPPORTS[0]))
    atoms = micro._support_atoms(cells, P.num, P.den)
    tau_micro_oracle(TriVector(FAILING_SUPPORTS[0]), P)
    assert micro._support_atoms(cells, P.num, P.den) is atoms
    seed = [(key, column) for key, _, column in atoms.members]
    micro._support_atoms.cache_clear()
    fresh = micro._support_atoms(cells, P.num, P.den)
    assert [(key, column) for key, _, column in fresh.members] == seed


def test_pricing_past_the_optimum_adds_no_member(monkeypatch):
    # every pricing round on the first failing support finds members, and
    # its last cover is optimal over all the slot programs can give, so
    # pricing that cover's duals finds none
    duals, found = [], []
    cover, price = micro._cover_program, micro._SupportAtoms.price

    def record_cover(*args):
        out = cover(*args)
        duals.append(out[2])
        return out

    def record_price(self, y):
        out = price(self, y)
        found.append(len(out))
        return out

    monkeypatch.setattr(micro, "_cover_program", record_cover)
    monkeypatch.setattr(micro._SupportAtoms, "price", record_price)
    x = TriVector(FAILING_SUPPORTS[0])
    tau_micro_oracle(x, P)
    assert len(found) == 3 and all(found)
    assert micro._support_atoms(x.support(), P.num, P.den).price(duals[-1]) == {}


def slot_lp_reference(
    group: tuple[int, ...], cells: tuple[Cell, ...], y: Mapping[Cell, F], beta: F
) -> F:
    """The slot program at budget beta as a dense LP (``solve_dense``):
    h on the group's support cells, then mu on every generator on the
    group, dominated ones too; returns max <y, h>."""
    own = [c for c in cells if c[0] in group]
    gens = gens_on_reference(group)
    n, m = len(own), len(gens)
    rows, rhs = [], []
    for k, (i, j) in enumerate(own):  # sum_q mu_q ind_q - h >= 0
        row = [F(0)] * (n + m)
        row[k] = F(-1)
        for q, seq in enumerate(gens):
            if i <= len(seq.m) and j <= seq.m[i - 1]:
                row[n + q] = F(1)
        rows.append(row)
        rhs.append(F(0))
    rows.append([F(0)] * n + [F(-1)] * m)
    rhs.append(F(-1))
    rows.append([F(-1, i) for i, _ in own] + [F(0)] * m)
    rhs.append(-beta)
    res = solve_dense([-y[c] for c in own] + [F(0)] * m, rows, rhs)
    return -res.objective


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(MICRO_CELLS), min_size=1, max_size=6, unique=True), st.data())
def test_slot_optima_match_the_lp(cells, data):
    # the concave-hull optimum of every slot equals the simplex's, and its
    # piece is a hull member at scale 1 within the budget that reaches it
    cells = tuple(sorted(cells))
    rows = tuple(sorted({i for i, _ in cells}))
    value = st.fractions(min_value=0, max_value=3, max_denominator=12)
    y = {c: data.draw(value) for c in cells}
    betas = [micro._budget(rank, P.num, P.den).lo for rank in (1, 2, 3)]
    for group in sorted({group for pattern in _patterns(rows) for group, _ in pattern}):
        optima = micro._SlotProgram(group, cells).optima(y, betas)
        for beta, (optimum, piece) in zip(betas, optima):
            assert optimum == slot_lp_reference(group, cells, y, beta)
            if piece is None:
                assert optimum == 0
                continue
            h = TriVector({cell: F(num, den) for cell, num, den in piece.key})
            piece.cert.validate(h)
            assert piece.cert.scale == 1
            assert sum((v / i for (i, _), v in h.items()), F(0)) <= beta
            assert sum((y[c] * v for c, v in h.items()), F(0)) == optimum


def test_seed_columns_are_built_with_their_members(cold_store):
    # each seed member's cover column is built once, with the member: the
    # column of its key, and of its element's dense entries
    position = {cell: k for k, cell in enumerate(FULL_SUPPORT)}
    members = micro._support_atoms(FULL_SUPPORT, P.num, P.den).members
    assert len(members) == 64
    for key, pieces, column in members:
        assert column == micro._key_column(key, position)
        elem = _joined(pieces, P).element()
        dense = [elem.entry(*cell) for cell in FULL_SUPPORT]
        assert column == dense_column([(k, v) for k, v in enumerate(dense) if v], 1)


def test_store_of_the_full_support_stays_small(cold_store):
    # the full six-cell support's seed, with its 64 members' columns, and
    # its slot programs keep about 0.05 MB (tracemalloc, CPython 3.11);
    # the store of three weight-grid rounds it replaced kept 0.92 MB
    micro._support_atoms(FULL_SUPPORT, P.num, P.den)  # fills the caches every support shares
    micro._support_atoms.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        micro._support_atoms(FULL_SUPPORT, P.num, P.den)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 100_000


def outcome(x: TriVector, p: LorentzParam = P) -> str:
    """The repr of the oracle's interval, or of an error's round count and
    interval."""
    try:
        return repr(tau_micro_oracle(x, p))
    except ToleranceUnreachableError as err:
        return repr((err.rounds, err.interval))


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.sampled_from(MICRO_CELLS), min_size=2, max_size=6, unique=True),
    st.data(),
)
def test_warm_store_gives_the_cold_results(cells, data):
    # the second call reuses the store the first one built; entries of
    # similar size mostly leave the cheap interval too wide
    value = st.builds(lambda k, sign: sign * F(k, 8), st.integers(10, 16), st.sampled_from((1, -1)))
    xs = [TriVector({c: data.draw(value) for c in cells}) for _ in range(2)]
    micro._support_atoms.cache_clear()
    warm = [outcome(x) for x in xs]
    cold = []
    for x in xs:
        micro._support_atoms.cache_clear()
        cold.append(outcome(x))
    assert warm == cold


@pytest.mark.parametrize("limit", [0, 1])
def test_shorter_round_limit_leaves_later_calls_identical(monkeypatch, cold_store, limit):
    xs = [TriVector(cells) for cells in FAILING_SUPPORTS + (BAND_SUPPORT,)]
    want = [outcome(x) for x in xs]
    micro._support_atoms.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(micro, "PRICING_ROUNDS", limit)
        for x in xs:
            outcome(x)
    assert [outcome(x) for x in xs] == want


# -- the oracle's output, pinned -------------------------------------------------


def uniform_support(rng: random.Random) -> dict[Cell, F]:
    """A support drawn as the benchmark's micro workload draws its fixed
    ones: each cell of rows 1..3 present with probability 1/2, value
    +-k/8 for k in 1..16."""
    while True:
        cells = {
            c: F(rng.randint(1, 16), 8) * (-1 if rng.random() < 0.3 else 1)
            for c in MICRO_CELLS
            if rng.random() < 0.5
        }
        if cells:
            return cells


# sha256 of the repr of every result (of the interval, for an error) on
# the first 40 supports of random.Random(19920301); any change to a
# member, a cover optimum or a dual witness moves it
UNIFORM_DIGEST = "279e25dffb30c3d9fa27b60a1d1de02a2f709b2d8bc0d579a53a47481b43a473"


def test_uniform_supports_pinned():
    rng = random.Random(19920301)
    reprs = []
    for _ in range(40):
        x = TriVector(uniform_support(rng))
        try:
            reprs.append(repr(tau_micro_oracle(x, P)))
        except ToleranceUnreachableError as err:
            reprs.append(repr(err.interval))
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == UNIFORM_DIGEST


def uniform_digest(warm: str) -> str:
    """``UNIFORM_DIGEST``'s hash, with the store emptied and then warmed:
    by none, by the same supports, by them in reverse order, or by a call
    at p = 5/4 just before each one."""
    rng = random.Random(19920301)
    xs = [TriVector(uniform_support(rng)) for _ in range(40)]
    micro._support_atoms.cache_clear()
    if warm in ("same", "reversed"):
        for x in xs if warm == "same" else xs[::-1]:
            outcome(x)
    reprs = []
    for x in xs:
        if warm == "interleaved":
            outcome(x, LorentzParam(5, 4))
        try:
            reprs.append(repr(tau_micro_oracle(x, P)))
        except ToleranceUnreachableError as err:
            reprs.append(repr(err.interval))
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


@pytest.mark.parametrize("warm", ["cold", "same", "reversed", "interleaved"])
def test_uniform_supports_pinned_cold_and_warm(cold_store, warm):
    assert uniform_digest(warm) == UNIFORM_DIGEST


def survey() -> list[TriVector]:
    """12 draws on each of the 63 supports within rows 1..3, the supports
    in the order of their bit masks over the cells in row order, each
    value k/8 with k uniform in 1..16 from random.Random(7)."""
    rng = random.Random(7)
    xs = []
    for mask in range(1, 2 ** len(MICRO_CELLS)):
        cells = [c for k, c in enumerate(MICRO_CELLS) if mask >> k & 1]
        for _ in range(12):
            xs.append(TriVector({c: F(rng.randint(1, 16), 8) for c in cells}))
    return xs


# sha256 of the reprs of the survey's results, joined as for UNIFORM_DIGEST
SURVEY_DIGEST = "a5f85824e38e6b9ca2b9ddd50edc0863e27a57f5d12530ef2e24b1690f8a5a79"


def test_survey_closes_inside_the_cheap_intervals():
    # 25 of these 756 draws failed under the weight-grid rounds
    xs = survey()
    assert len(xs) == 756
    reprs = []
    for x in xs:
        iv = tau_micro_oracle(x, P)
        cheap = gauge_interval(x, P)
        assert iv.hi - iv.lo <= DEFAULT_TOL
        assert cheap.lo <= iv.lo <= iv.hi <= cheap.hi
        reprs.append(repr(iv))
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == SURVEY_DIGEST
