"""Tests for certified gauge bounds and pairing witnesses."""

import dataclasses
import hashlib
import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigauge.core import (
    DEFAULT_P,
    LorentzParam,
    TriVector,
    l2_norm_sq,
    lorentz_l2_constant,
    lorentz_le_sq,
    lorentz_value_sq,
    row_norm_sq,
    row_pairing,
)
from trigauge.decompose import make_disjoint_rep
from trigauge.exact import sqrt_enclosure
from trigauge.gauge import (
    GaugeCertificate,
    GaugeLowerWitness,
    PairingWitness,
    gauge_interval,
    gauge_lower,
    gauge_upper,
    pairing_witness,
)
from trigauge import core, gauge, generators
from trigauge.generators import (
    EnumerationBudgetError,
    GridSeq,
    HullCertificate,
    hull_min_scale,
)

P = DEFAULT_P
C_HI = lorentz_l2_constant(P).hi


@contextmanager
def hull_checks(monkeypatch):
    """Record each ``HullCertificate.validate`` call's certificate, except
    the calls made inside ``gauge.hull_min_scale``."""
    calls, depth = [], []
    validate = HullCertificate.validate
    solve = gauge.hull_min_scale

    def counted(cert, x):
        if not depth:
            calls.append(cert)
        return validate(cert, x)

    def inside(target):
        depth.append(target)
        try:
            return solve(target)
        finally:
            depth.pop()

    monkeypatch.setattr(HullCertificate, "validate", counted)
    monkeypatch.setattr(gauge, "hull_min_scale", inside)
    yield calls


def forged_reps(rep):
    """The representative with its first stored seminorm square, or its
    first hull certificate's scale, halved; neither is a unit member."""
    cert = rep.certs[0]
    yield dataclasses.replace(rep, norms_sq=(rep.norms_sq[0] / 2,) + rep.norms_sq[1:])
    yield dataclasses.replace(
        rep, certs=(dataclasses.replace(cert, scale=cert.scale / 2),) + rep.certs[1:]
    )


def full_row(i):
    return GridSeq((0,) * (i - 1) + (i,)).indicator()


def unit_rep(pieces):
    """``make_disjoint_rep`` with each piece's minimal-scale hull certificate."""
    return make_disjoint_rep(pieces, P, [hull_min_scale(piece)[1] for piece in pieces])


REFERENCE_PARTITION_ROWS = 5


def gauge_upper_reference(x, p):
    """gauge_upper before its LP-free partition bounds, kept as the
    reference: it solves every group of every partition on up to 5 rows."""
    target = abs(x)
    if target.is_zero():
        return GaugeCertificate((), (), F(0))
    rows = target.active_rows()
    hulls = {}

    def hull(group):
        if group not in hulls:
            try:
                hulls[group] = hull_min_scale(target.restrict_rows(group))
            except EnumerationBudgetError:
                hulls[group] = None  # enumeration too large for this grouping
        return hulls[group]

    # per-row split: no enumeration, always available
    sups = [target.restrict_rows([i]).sup_norm() for i in rows]
    row_certs = [gauge._full_row_cert(i, sup) for i, sup in zip(rows, sups)]
    row_sq = {i: row_norm_sq(target.restrict_rows([i])) for i in rows}
    scale = max(max(sups), lorentz_value_sq(row_sq.values(), p).hi)
    best = (scale, tuple((i,) for i in rows), row_certs)

    if len(rows) <= REFERENCE_PARTITION_ROWS:
        for partition in gauge._set_partitions(rows):
            if len(partition) == len(rows):
                continue  # the singleton partition is the per-row split
            solved = [hull(group) for group in partition]
            if None in solved:
                continue
            norms = [sum((row_sq[i] for i in group), F(0)) for group in partition]
            scale = max(max(lam for lam, _ in solved), lorentz_value_sq(norms, p).hi)
            if scale < best[0]:
                best = (scale, partition, tuple(cert for _, cert in solved))
    else:
        solved = hull(rows)
        if solved is not None and solved[0] < best[0]:
            best = (solved[0], (rows,), (solved[1],))

    scale, groups, certs = best
    pieces = [target.restrict_rows(group) for group in groups]
    cert = gauge._single_rep_certificate(pieces, certs, scale, p)
    cert.validate(x)
    return cert


def gauge_upper_every_group_lp(x, p):
    """gauge_upper before the subgroup bound, kept as the reference: the
    groups of a surviving partition are solved until one's hull scale is
    not below the best, even when a solved subgroup already decides it.
    It looks up ``gauge.hull_min_scale`` so that one counter sees both."""
    target = abs(x)
    if target.is_zero():
        return GaugeCertificate((), (), F(0))
    rows = target.active_rows()
    hulls = {}
    norms = {}

    def hull(group):
        if group not in hulls:
            try:
                hulls[group] = gauge.hull_min_scale(target.restrict_rows(group))
            except EnumerationBudgetError:
                hulls[group] = None  # enumeration too large for this grouping
        return hulls[group]

    def hull_below(group, bound):
        solved = hull(group)
        return solved is not None and solved[0] < bound

    def norm_sq(group):
        if group not in norms:
            norms[group] = sum((row_sq[i] for i in group), F(0))
        return norms[group]

    # per-row split: no enumeration, always available
    sups = [target.restrict_rows([i]).sup_norm() for i in rows]
    row_certs = [gauge._full_row_cert(i, sup) for i, sup in zip(rows, sups)]
    row_sq = {i: row_norm_sq(target.restrict_rows([i])) for i in rows}
    scale = max(max(sups), lorentz_value_sq(row_sq.values(), p).hi)
    best = (scale, tuple((i,) for i in rows), row_certs)

    if len(rows) <= gauge.MAX_PARTITION_ROWS:
        floor = max(sups)  # no partition's scale is below the largest |x_ij|
        for partition in gauge._set_partitions(rows):
            bound = best[0]
            if bound <= floor:
                break
            if len(partition) == len(rows):
                continue  # the singleton partition is the per-row split
            group_sq = [norm_sq(group) for group in partition]
            if not lorentz_le_sq(group_sq, bound**2, p):
                continue
            scale = lorentz_value_sq(group_sq, p).hi
            if scale >= bound:
                continue
            # solved groups cost nothing; then fewer rows means a smaller LP
            order = sorted(partition, key=lambda group: (group not in hulls, len(group)))
            if all(hull_below(group, bound) for group in order):
                scale = max(scale, *(hulls[group][0] for group in partition))
                best = (scale, partition, tuple(hulls[group][1] for group in partition))
    else:
        solved = hull(rows)
        if solved is not None and solved[0] < best[0]:
            best = (solved[0], (rows,), (solved[1],))

    scale, groups, certs = best
    pieces = [target.restrict_rows(group) for group in groups]
    cert = gauge._single_rep_certificate(pieces, certs, scale, p)
    cert.validate(x)
    return cert


class TestGaugeUpper:
    def test_zero(self):
        cert = gauge_upper(TriVector(), P)
        assert cert.scale == 0
        cert.validate(TriVector())

    def test_generator_indicator_is_unit(self):
        # any generator's indicator lies in U, so the bound is exactly 1
        x = GridSeq((0, 2)).indicator()
        cert = gauge_upper(x, P)
        assert cert.scale == 1
        cert.validate(x)

    def test_single_cell(self):
        cert = gauge_upper(TriVector({(1, 1): 1}), P)
        assert cert.scale == 1

    def test_scaled_cell_exact(self):
        x = TriVector({(2, 1): F(1, 2)})
        assert gauge_upper(x, P).scale == F(1, 2)

    def test_row_split_beats_single_hull(self):
        # three half cells on separate rows: pieces e_{i,1}/2 give scale 1/2,
        # while one hull piece would cost more than the generator budget allows
        x = TriVector({(1, 1): F(1, 2), (2, 1): F(1, 2), (3, 1): F(1, 2)})
        cert = gauge_upper(x, P)
        assert cert.scale == F(1, 2)
        cert.validate(x)

    def test_negative_entries_use_modulus(self):
        x = TriVector({(2, 1): F(-1, 2), (2, 2): F(1, 2)})
        cert = gauge_upper(x, P)
        assert cert.scale == F(1, 2)
        cert.validate(x)

    def test_solidity_certificate_transfers(self):
        y = TriVector({(2, 1): F(3, 4), (2, 2): F(1, 2)})
        x = TriVector({(2, 1): F(1, 4)})
        cert = gauge_upper(y, P)
        cert.validate(x)  # |x| <= |y| pointwise, same certificate works

    def test_large_support_fallback(self):
        # 8 active rows: partition search is skipped, row split still certifies
        x = TriVector({(i, 1): F(1, 10) for i in range(1, 9)})
        cert = gauge_upper(x, P)
        cert.validate(x)
        assert cert.scale >= F(1, 10)

    # ones on rows 1..2: the one partition {1, 2} survives the bounds
    # (Lorentz value sqrt 2 < 2^(2/3)) and reaches its LP
    ONES_2 = TriVector({(1, 1): 1, (2, 1): 1, (2, 2): 1})

    def test_enumeration_budget_falls_back_to_row_split(self, monkeypatch):
        calls = []

        def over_budget(target):
            calls.append(target)
            raise EnumerationBudgetError("generator enumeration exceeds the budget")

        monkeypatch.setattr(gauge, "hull_min_scale", over_budget)
        cert = gauge_upper(self.ONES_2, P)
        cert.validate(self.ONES_2)
        assert calls == [self.ONES_2]
        (rep,) = cert.reps
        assert [piece.active_rows() for piece in rep.pieces] == [(1,), (2,)]

    def test_other_runtime_errors_propagate(self, monkeypatch):
        calls = []

        def broken(target):
            calls.append(target)
            raise RuntimeError("not a budget error")

        monkeypatch.setattr(gauge, "hull_min_scale", broken)
        with pytest.raises(RuntimeError, match="not a budget error"):
            gauge_upper(self.ONES_2, P)
        assert calls == [self.ONES_2]


def ones(n):
    return TriVector({(i, j): 1 for i in range(1, n + 1) for j in range(1, i + 1)})


def decr(n):
    return TriVector(
        {(i, j): F(2 * i - j, 2 * i) for i in range(1, n + 1) for j in range(1, i + 1)}
    )


# One magnitude per vector times a few signed factors, so that rows share
# their largest entry and partitions often tie or win.  Magnitudes above 1
# make best**2 and best differ in both directions.
MAGNITUDES = (F(1, 2), F(1), F(3, 2))
FACTORS = (F(1), F(-1), F(-1, 2))


@st.composite
def supports(draw, max_row, min_rows, max_rows):
    rows = draw(st.sets(st.integers(1, max_row), min_size=min_rows, max_size=max_rows))
    scale = draw(st.sampled_from(MAGNITUDES))
    entries = {}
    for i in rows:
        for j in draw(st.sets(st.integers(1, i), min_size=1)):
            entries[(i, j)] = scale * draw(st.sampled_from(FACTORS))
    return entries


class TestBoundedPartitionSearch:
    """gauge_upper against the search that solves every partition's LPs."""

    @settings(max_examples=60, deadline=None)
    @given(supports(7, 1, 5))
    def test_identical_up_to_five_rows(self, entries):
        x = TriVector(entries)
        assert gauge_upper(x, P) == gauge_upper_reference(x, P)

    @pytest.mark.parametrize("scale", MAGNITUDES)
    @pytest.mark.parametrize("family", [ones, decr])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_identical_on_families(self, n, family, scale):
        x = family(n).scale(scale)
        assert gauge_upper(x, P) == gauge_upper_reference(x, P)

    @settings(max_examples=8, deadline=None)
    @given(supports(6, 6, 6))
    def test_six_rows_never_worse(self, entries):
        x = TriVector(entries)
        cert = gauge_upper(x, P)
        cert.validate(x)
        assert cert.scale <= gauge_upper_reference(x, P).scale

    def test_six_row_families_pinned(self):
        # 2.520 and 1.451; the whole-support hull alone gave 3.302 and 1.828
        pinned = [
            (ones(6), F(49910614848106779105989319563, 19807040628566084398385987584)),
            (decr(6), F(14366056065741671398268257819, 9903520314283042199192993792)),
        ]
        for x, scale in pinned:
            cert = gauge_upper(x, P)
            assert cert.scale == scale
            assert cert.scale < gauge_upper_reference(x, P).scale
            cert.validate(x)

    @pytest.mark.parametrize(
        "x, lps",
        [
            # solving every group of every partition takes 31 LPs here,
            # and 22 without the subgroup bound
            (decr(5), 10),
            # 12 without the subgroup bound
            (decr(4), 7),
            # the row split already reaches the largest entry; 1 LP before
            (TriVector({(1, 1): F(1, 4), (3, 1): F(1)}), 0),
        ],
        ids=["decr5", "decr4", "sup-bound"],
    )
    def test_lp_count(self, monkeypatch, x, lps):
        calls = []
        solve = gauge.hull_min_scale

        def counted(target):
            calls.append(target)
            return solve(target)

        monkeypatch.setattr(gauge, "hull_min_scale", counted)
        assert gauge_upper(x, P) == gauge_upper_reference(x, P)
        assert len(calls) == lps
        assert len(set(calls)) == len(calls)

    def test_each_root_enclosed_once(self, monkeypatch):
        # every partition of ones on rows 1..6 shares one dict of roots,
        # and most of them tie the per-row split's top term
        want = gauge_upper(ones(6), P)
        calls = []
        enclose = core.root_enclosure

        def counted(x, k, bits=64):
            calls.append((x, k, bits))
            return enclose(x, k, bits)

        monkeypatch.setattr(core, "root_enclosure", counted)
        assert gauge_upper(ones(6), P) == want
        assert calls
        assert len(set(calls)) == len(calls)


@contextmanager
def logged_lps():
    """Record (rows, hull scale) of every ``gauge.hull_min_scale`` call."""
    log = []
    solve = gauge.hull_min_scale

    def logged(target):
        solved = solve(target)
        log.append((target.active_rows(), solved[0]))
        return solved

    gauge.hull_min_scale = logged
    try:
        yield log
    finally:
        gauge.hull_min_scale = solve


def assert_only_dropped_lps(x):
    """gauge_upper returns what the search without the subgroup bound
    returns, and solves a subsequence of that search's groups."""
    with logged_lps() as fast:
        got = gauge_upper(x, P)
    with logged_lps() as full:
        want = gauge_upper_every_group_lp(x, P)
    assert got == want
    assert len({rows for rows, _ in fast}) == len(fast)
    remaining = iter(full)
    assert all(call in remaining for call in fast)
    return got, fast, full


class TestSubgroupBound:
    """A group is not solved once a solved subgroup reaches the bound."""

    def test_whole_support_ruled_out_by_subgroup(self):
        # ones on rows 1..3: the pair {1, 2} sets the best at hull scale 2,
        # so the whole support, whose LP would give 3, is never solved
        cert, fast, full = assert_only_dropped_lps(ones(3))
        assert cert.scale == 2
        assert ((1, 2), 2) in fast
        assert ((1, 2, 3), 3) in full
        assert (1, 2, 3) not in {rows for rows, _ in fast}

    @settings(max_examples=40, deadline=None)
    @given(supports(7, 1, 5))
    def test_subsequence_up_to_five_rows(self, entries):
        assert_only_dropped_lps(TriVector(entries))

    @pytest.mark.parametrize(
        "x", [decr(4), decr(5), ones(6), decr(6)], ids=["decr4", "decr5", "ones6", "decr6"]
    )
    def test_identical_on_families(self, x):
        assert_only_dropped_lps(x)

    @settings(max_examples=20, deadline=None)
    @given(supports(6, 6, 6))
    def test_identical_on_six_rows(self, entries):
        assert_only_dropped_lps(TriVector(entries))


def mod5(n):
    return TriVector(
        {(i, j): F(1 + i * j % 5, 5) for i in range(1, n + 1) for j in range(1, i + 1)}
    )


def recorded_hull_rows(monkeypatch):
    """The rows of every ``gauge.hull_min_scale`` call, recorded before it runs."""
    rows = []
    solve = gauge.hull_min_scale

    def recorded(target):
        rows.append(target.active_rows())
        return solve(target)

    monkeypatch.setattr(gauge, "hull_min_scale", recorded)
    return rows


# one generator's indicator on rows 20..26: the whole support wins at scale 1
ONE_GENERATOR_7 = GridSeq((0,) * 19 + (8,) * 7).indicator()


class TestPrefixBound:
    """Past MAX_PARTITION_ROWS rows the whole support is solved only once
    each row prefix of up to MAX_PARTITION_ROWS rows stays below the best."""

    @pytest.mark.parametrize(
        "x",
        [decr(7), decr(8), mod5(7), mod5(8), ONE_GENERATOR_7],
        ids=["decr7", "decr8", "mod5-7", "mod5-8", "one-generator"],
    )
    def test_identical_on_families(self, x):
        assert gauge_upper(x, P) == gauge_upper_every_group_lp(x, P)

    @settings(max_examples=12, deadline=None)
    @given(supports(9, 7, 8))
    def test_identical_on_seven_and_eight_rows(self, entries):
        x = TriVector(entries)
        assert gauge_upper(x, P) == gauge_upper_every_group_lp(x, P)

    def test_whole_support_solved_after_its_prefixes(self, monkeypatch):
        rows = recorded_hull_rows(monkeypatch)
        cert = gauge_upper(ONE_GENERATOR_7, P)
        assert cert.scale == 1 and len(cert.reps[0].pieces) == 1
        whole = ONE_GENERATOR_7.active_rows()
        assert rows == [whole[:k] for k in range(2, 7)] + [whole]

    @pytest.mark.parametrize("n", [10, 12])
    def test_decr_solves_at_most_six_rows(self, monkeypatch, n):
        # the whole-support LP took 127 s on rows 1..10 before the prefixes
        rows = recorded_hull_rows(monkeypatch)
        gauge_upper(decr(n), P).validate(decr(n))
        assert rows and max(map(len, rows)) <= gauge.MAX_PARTITION_ROWS

    def test_row_split_at_largest_entry_solves_nothing(self, monkeypatch):
        x = TriVector({(1, 1): F(1), **{(i, 1): F(1, 100) for i in range(2, 9)}})
        rows = recorded_hull_rows(monkeypatch)
        cert = gauge_upper(x, P)
        assert cert.scale == 1 and len(cert.reps[0].pieces) == 8
        assert rows == []


class TestGaugeLower:
    def test_zero(self):
        assert gauge_lower(TriVector(), P).value == 0

    def test_single_cell_sup(self):
        w = gauge_lower(TriVector({(1, 1): 1}), P)
        assert w.value == 1 and w.kind == "sup"

    def test_unit_generator_reaches_inverse_constant(self):
        # row seminorm 1, so the seminorm route alone reaches 1/C_hi
        x = GridSeq((0, 2)).indicator()
        w = gauge_lower(x, P)
        assert w.value >= 1 / C_HI
        w.validate(x)

    def test_seminorm_route_beats_sup(self):
        # all ones on rows 1..4: row seminorm 2 > C, so that route wins
        x = TriVector({(i, j): 1 for i in range(1, 5) for j in range(1, i + 1)})
        w = gauge_lower(x, P)
        assert w.kind == "seminorm"
        assert w.value == 2 / C_HI  # sqrt(4) encloses exactly
        w.validate(x)

    @pytest.mark.parametrize(
        "x, kind",
        [
            (TriVector({(1, 1): 1, (2, 1): F(1, 2)}), "sup"),
            (TriVector({(i, j): 1 for i in range(1, 5) for j in range(1, i + 1)}), "seminorm"),
        ],
        ids=["sup", "seminorm"],
    )
    def test_seminorm_computed_once(self, monkeypatch, x, kind):
        # the builder computes the seminorm once; only validate recomputes it
        calls = []
        seminorm = gauge.row_norm_sq

        def counted(v):
            calls.append(v)
            return seminorm(v)

        monkeypatch.setattr(gauge, "row_norm_sq", counted)
        w = gauge_lower(x, P)
        assert w.kind == kind and calls == [x]
        w.validate(x)
        assert len(calls) == 1 + (kind == "seminorm")

    def test_tampered_witness_caught(self):
        x = TriVector({(1, 1): F(1, 2)})
        w = gauge_lower(x, P)
        bad = GaugeLowerWitness(w.value * 2, w.kind, w.detail, w.ceiling)
        with pytest.raises(AssertionError):
            bad.validate(x)

    def test_forged_ceiling_rejected(self):
        # the gauge of e_(1,1) is 1; a tiny ceiling would "prove" 1000
        x = TriVector({(1, 1): 1})
        forged = GaugeLowerWitness(F(1000), "seminorm", (), F(1, 1000))
        with pytest.raises(AssertionError, match="series constant"):
            forged.validate(x)
        forged = GaugeLowerWitness(F(1000), "pairing", (F(1),), F(1, 1000))
        with pytest.raises(AssertionError, match="unknown witness kind"):
            forged.validate(x)
        # the ceiling is checked against the witness's own p: C(5/3) > C(3/2)
        other = LorentzParam(5, 3)
        assert gauge_lower(x, other).p == other
        GaugeLowerWitness(F(1) / C_HI, "seminorm", (), C_HI).validate(x)
        with pytest.raises(AssertionError, match="series constant"):
            GaugeLowerWitness(F(1) / C_HI, "seminorm", (), C_HI, other).validate(x)


def gauge_lower_reference(x, p):
    """gauge_lower before it formed the seminorm root only when that route
    can win, kept as the reference: it always forms the seminorm witness."""
    if x.is_zero():
        return GaugeLowerWitness(F(0), "sup", (1, 1), F(1), p)
    cell, value = max(x.items(), key=lambda kv: (abs(kv[1]), kv[0]))
    best = GaugeLowerWitness(abs(value), "sup", cell, F(1), p)
    c_hi = lorentz_l2_constant(p).hi
    seminorm = GaugeLowerWitness(sqrt_enclosure(row_norm_sq(x)).lo / c_hi, "seminorm", (), c_hi, p)
    if seminorm.value > best.value:
        best = seminorm
    return best


def assert_lower_matches_reference(monkeypatch, x, p):
    """gauge_lower equals the reference, and forms the root only when the
    squared seminorm exceeds (largest |x_ij| * C_hi)^2."""
    roots = []
    enclose = gauge.sqrt_enclosure

    def counted(v):
        roots.append(v)
        return enclose(v)

    monkeypatch.setattr(gauge, "sqrt_enclosure", counted)
    got = gauge_lower(x, p)
    assert got == gauge_lower_reference(x, p)
    can_win = row_norm_sq(x) > (x.sup_norm() * lorentz_l2_constant(p).hi) ** 2
    assert len(roots) == can_win
    return got


class TestGaugeLowerGate:
    """The seminorm root is formed only when that route can beat sup."""

    # (p, the first row count from which the seminorm wins on ones and on
    # decr; 7 for never up to 6 rows): the series constant grows with p
    @pytest.mark.parametrize(
        "p, first_ones, first_decr",
        [(P, 4, 7), (LorentzParam(5, 4), 3, 5), (LorentzParam(7, 4), 7, 7)],
        ids=str,
    )
    def test_identical_on_families(self, monkeypatch, p, first_ones, first_decr):
        for family, first in ((ones, first_ones), (decr, first_decr)):
            for n in range(1, 7):
                for scale in MAGNITUDES:
                    got = assert_lower_matches_reference(monkeypatch, family(n).scale(scale), p)
                    assert got.kind == ("seminorm" if n >= first else "sup")

    @settings(max_examples=80, deadline=None)
    @given(supports(12, 1, 8), st.sampled_from((P, LorentzParam(5, 4), LorentzParam(7, 4))))
    def test_identical_on_supports(self, entries, p):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_lower_matches_reference(monkeypatch, TriVector(entries), p)

    def test_identical_on_atlas(self, monkeypatch):
        for x in atlas_vectors():
            assert_lower_matches_reference(monkeypatch, x, P)


# sha256 of the reprs of gauge_interval over ``atlas_vectors``;
# a change that moves any certificate, scale or witness moves it
GAUGE_ATLAS_DIGEST = "e8828953e5b58d501ee938663a825ea9b72d78ac7e050e80d045eff374e8fa8a"


def atlas_vectors(seed=20261020, count=40):
    """``count`` seeded vectors drawn as the benchmark's gauge workload
    draws them: 3 to 6 active rows of 1..7, two cells per row (one on
    row 1), values k/8 with k in 1..8."""
    rng = random.Random(seed)
    vectors = []
    for _ in range(count):
        rows = sorted(rng.sample(range(1, 8), rng.randint(3, 6)))
        cells = {}
        for i in rows:
            for j in rng.sample(range(1, i + 1), min(i, 2)):
                cells[(i, j)] = F(rng.randint(1, 8), 8)
        vectors.append(TriVector(cells))
    return vectors


def atlas_digest():
    """Hash the reprs of gauge_interval over ``atlas_vectors``."""
    reprs = [repr(gauge_interval(x, P)) for x in atlas_vectors()]
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


class TestWinnerOnlyWork:
    """The per-row split's certificates are built only when it wins, and
    only groups of two or more rows reach an LP."""

    @pytest.mark.parametrize(
        "x",
        [family(n) for family in (ones, decr) for n in range(1, 7)] + atlas_vectors(),
    )
    def test_work_counts(self, monkeypatch, x):
        built, solves, hulls = [], [], []
        full_row_cert = gauge._full_row_cert
        solve_lp = generators.solve_lp
        hull = gauge.hull_min_scale

        def counted_cert(i, sup):
            built.append(i)
            return full_row_cert(i, sup)

        def counted_lp(columns, rhs):
            solves.append(len(rhs))
            return solve_lp(columns, rhs)

        def counted_hull(target):
            before = len(solves)
            solved = hull(target)
            hulls.append((target.active_rows(), len(solves) - before))
            return solved

        monkeypatch.setattr(gauge, "_full_row_cert", counted_cert)
        monkeypatch.setattr(generators, "solve_lp", counted_lp)
        monkeypatch.setattr(gauge, "hull_min_scale", counted_hull)
        cert = gauge_upper(x, P)
        (rep,) = cert.reps
        rows = x.active_rows()
        # the search skips the all-singleton partition, so one-row pieces
        # throughout mean the per-row split won
        split = [piece.active_rows() for piece in rep.pieces] == [(i,) for i in rows]
        assert built == (list(rows) if split else [])
        assert [lps for _, lps in hulls] == [int(len(group) > 1) for group, _ in hulls]
        assert len(solves) == sum(lps for _, lps in hulls)


class TestGaugeInterval:
    def test_ordering_on_samples(self):
        samples = [
            TriVector(),
            TriVector({(1, 1): F(3, 7)}),
            GridSeq((0, 1, 2)).indicator(),
            TriVector({(2, 2): F(1, 3), (5, 1): F(4, 5)}),
        ]
        for x in samples:
            iv = gauge_interval(x, P)
            assert iv.lo <= iv.hi
            iv.upper.validate(x)
            iv.lower.validate(x)

    def test_indicator_interval_is_point(self):
        iv = gauge_interval(GridSeq((0, 1)).indicator(), P)
        assert iv.lo == iv.hi == 1

    def test_far_row_single_cell_is_point(self):
        # the generators here span a million rows, all but one empty, so
        # their budget check must cost only the nonzero rows to stay fast
        x = TriVector({(10**6, 1): F(1)})
        iv = gauge_interval(x, P)
        assert iv.lo == iv.hi == 1
        iv.upper.validate(x)

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
                lambda ij: ij[0] >= ij[1]
            ),
            st.fractions(min_value=F(-2), max_value=F(2), max_denominator=16),
            max_size=5,
        )
    )
    def test_sound_on_random_vectors(self, entries):
        x = TriVector(entries)
        iv = gauge_interval(x, P)
        assert iv.lo <= iv.hi
        iv.upper.validate(x)
        iv.lower.validate(x)

    @pytest.mark.parametrize(
        "x",
        [
            TriVector({(2, 2): F(1, 3), (5, 1): F(4, 5)}),
            TriVector({(1, 1): F(1, 4), (3, 1): F(1)}),
            GridSeq((0, 1, 2)).indicator(),
            decr(3),
            decr(4),
        ],
        ids=["two-rows", "sup-bound", "indicator", "decr3", "decr4"],
    )
    def test_each_final_piece_checked_once(self, monkeypatch, x):
        with hull_checks(monkeypatch) as calls:
            iv = gauge_interval(x, P)
        (rep,) = iv.upper.reps
        assert len(calls) == rep.length
        assert all(a is b for a, b in zip(calls, rep.certs))

    def test_atlas_digest_pinned(self):
        assert atlas_digest() == GAUGE_ATLAS_DIGEST

    def test_forged_representative_rejected(self):
        x = TriVector({(2, 2): F(1, 3), (5, 1): F(4, 5)})
        cert = gauge_interval(x, P).upper
        for forged in forged_reps(cert.reps[0]):
            bad = GaugeCertificate(cert.weights, (forged,), cert.scale)
            bad._check_cover(x)  # the cover alone cannot see the forgery
            with pytest.raises(AssertionError, match="not a unit member"):
                bad.validate(x)


class TestRepExamples:
    def test_single_generator_piece_accepted(self):
        rep = unit_rep([GridSeq((0, 1)).indicator()])
        assert rep.is_unit_member()

    def test_two_full_norm_pieces_rejected(self):
        # two pieces of squared seminorm 1 violate the rank-2 budget at p = 3/2
        with pytest.raises(ValueError):
            unit_rep([full_row(1), full_row(2)])


class TestPairingWitness:
    def test_basis_head(self):
        w = pairing_witness((F(1),), P)
        assert w.branch == 1
        assert w.vector == TriVector({(1, 1): 1})
        assert w.pairing == 1

    def test_basis_tail(self):
        w = pairing_witness((0, 0, 0, 0, F(1)), P)
        assert w.branch == 2
        assert w.vector == full_row(5)
        assert w.pairing == 1

    def test_three_four_five(self):
        w = pairing_witness((F(3, 5), F(4, 5)), P)
        assert w.branch == 1
        assert w.pairing == F(4, 5)
        assert w.vector == TriVector({(2, 1): 1, (2, 2): 1})

    def test_branch_one_sign(self):
        w = pairing_witness((F(-4, 5), F(3, 5)), P)
        assert w.branch == 1
        assert w.vector == TriVector({(1, 1): -1})
        assert w.pairing == F(4, 5)

    def test_branch_one_tie_takes_first(self):
        b = (F(1, 2), F(1, 2), F(1, 2), F(1, 2))
        w = pairing_witness(b, P)
        assert w.vector == TriVector({(1, 1): 1})
        assert w.pairing == F(1, 2)

    def test_branch_two_frozen(self):
        # m_5 = floor(5/3) = 1, m_6 = floor(4) = 4, m_7 = floor(14/3) = 4
        # pairing = (1/3)/5 + 4(2/3)/6 + 4(2/3)/7 = 281/315
        b = (0, 0, 0, 0, F(1, 3), F(2, 3), F(2, 3))
        w = pairing_witness(b, P)
        assert w.branch == 2
        assert w.pairing == F(281, 315)
        assert w.pairing >= F(2, 9)

    def test_branch_two_signs(self):
        b = (0, 0, 0, 0, F(-1, 3), F(2, 3), F(-2, 3))
        w = pairing_witness(b, P)
        assert w.pairing == F(281, 315)
        assert w.vector.entry(5, 1) == -1 and w.vector.entry(7, 1) == -1

    def test_certificate_validates(self):
        for b in [(F(3, 5), F(4, 5)), (0, 0, 0, 0, F(1, 3), F(2, 3), F(2, 3))]:
            w = pairing_witness(b, P)
            w.validate(b)
            w.certificate.validate(w.vector)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            pairing_witness((F(1, 2), F(1, 2)), P)

    @pytest.mark.parametrize("b", [(F(3, 5), F(4, 5)), (0, 0, 0, 0, F(1, 3), F(2, 3), F(2, 3))])
    def test_pairing_computed_once(self, monkeypatch, b):
        # the builder stores the pairing; only validate recomputes it
        calls = []
        pairing = gauge.row_pairing

        def counted(x, coeffs):
            calls.append(x)
            return pairing(x, coeffs)

        monkeypatch.setattr(gauge, "row_pairing", counted)
        w = pairing_witness(b, P)
        assert calls == [w.vector]
        w.validate(b)
        assert len(calls) == 2
        bad = PairingWitness(w.vector, w.pairing + 1, w.branch, w.certificate)
        with pytest.raises(AssertionError, match="stored pairing"):
            bad.validate(b)

    @pytest.mark.parametrize("b", [(F(3, 5), F(4, 5)), (0, 0, 0, 0, F(1, 3), F(2, 3), F(2, 3))])
    def test_each_piece_checked_once(self, monkeypatch, b):
        with hull_checks(monkeypatch) as calls:
            w = pairing_witness(b, P)
        (rep,) = w.certificate.reps
        assert len(calls) == rep.length == 1
        assert calls[0] is rep.certs[0]

    @pytest.mark.parametrize("b", [(F(3, 5), F(4, 5)), (0, 0, 0, 0, F(1, 3), F(2, 3), F(2, 3))])
    def test_forged_representative_rejected(self, b):
        w = pairing_witness(b, P)
        cert = w.certificate
        for forged in forged_reps(cert.reps[0]):
            bad_cert = GaugeCertificate(cert.weights, (forged,), cert.scale)
            bad = PairingWitness(w.vector, w.pairing, w.branch, bad_cert)
            with pytest.raises(AssertionError, match="not a unit member"):
                bad.validate(b)

    def test_pairing_bounded_by_constant(self):
        # the same functional is bounded by C on the body: check on the witness
        for b in [(F(3, 5), F(4, 5)), (0, 0, 0, 0, F(1, 3), F(2, 3), F(2, 3))]:
            w = pairing_witness(b, P)
            assert row_pairing(w.vector, b) <= C_HI

    def test_body_elements_have_small_seminorm(self):
        # certified combinations keep the row seminorm at most C
        reps = [
            unit_rep([GridSeq((0, 2)).indicator()]),
            unit_rep([full_row(1).scale(F(1, 2)), full_row(3).scale(F(1, 3))]),
        ]
        cert = GaugeCertificate((F(1, 2), F(1, 2)), tuple(reps), F(1))
        v = core._weighted_sum(
            (piece, w * cert.scale) for w, rep in zip(cert.weights, reps) for piece in rep.pieces
        )
        assert row_norm_sq(v) <= C_HI**2


UNIT_TUPLES = [
    (F(3, 5), F(4, 5)),
    (F(1, 3), F(2, 3), F(2, 3)),
    (F(2, 7), F(3, 7), F(6, 7)),
    (F(1, 9), F(4, 9), F(8, 9)),
]


class TestUnitDirections:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(UNIT_TUPLES), st.permutations(range(7)))
    def test_embedded_units_stay_above_floor(self, base, perm):
        # scatter a unit tuple into 7 slots, preserving exact unit norm
        slots = [F(0)] * 7
        for v, pos in zip(base, perm):
            slots[pos] = v
        assert l2_norm_sq(slots) == 1
        w = pairing_witness(slots, P)
        assert w.pairing >= F(2, 9)
        w.validate(tuple(slots))
