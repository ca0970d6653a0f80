"""Sampler families: each must produce instances inside its advertised class."""

import random
from fractions import Fraction as F

from trigauge import instances as inst
from trigauge.core import DEFAULT_P, l2_norm_sq, row_norm_sq
from trigauge.generators import average_indicators, disjointness_degree

P = DEFAULT_P
SEEDS = range(25)


def test_samplers_are_deterministic():
    a = inst.subset_values(random.Random(9))
    b = inst.subset_values(random.Random(9))
    assert a == b
    x1, u1 = inst.micro_instance(random.Random(9))
    x2, u2 = inst.micro_instance(random.Random(9))
    assert (x1, u1) == (x2, u2)


def test_subset_values_in_range_with_big_total():
    for s in SEEDS:
        values = inst.subset_values(random.Random(s))
        assert 2 <= len(values) <= 64
        assert all(0 <= v <= 1 for v in values)
        assert sum(values) > 1


def test_subset_values_exact_length():
    for L in range(2, 13):
        values = inst.subset_values(random.Random(L), length=L)
        assert len(values) == L
        assert sum(values) > 1


def test_subset_values_two_full_entries_stay_in_range():
    # a short draw of one full entry and zeros gets a second full entry
    # from the feasibility step; its companion must not push either past 1
    hits = 0
    for s in range(5000):
        values = inst.subset_values(random.Random(s), length=2)
        assert all(0 <= v <= 1 for v in values)
        assert sum(values) > 1
        hits += values == [1, 1]
    assert hits


def test_sorted_unit_matrix_columns_sorted():
    for s in SEEDS:
        cols = inst.sorted_unit_matrix(random.Random(s))
        assert 1 <= len(cols) <= 20
        for col in cols:
            assert 1 <= len(col) <= 20
            assert all(0 <= v <= 1 for v in col)
            assert list(col) == sorted(col, reverse=True)


def test_sorted_unit_matrix_draws_sorted_fractions():
    # the same matrices as sorting each column's Fractions directly
    for s in SEEDS:
        rng = random.Random(s)
        want = []
        for _ in range(rng.randint(1, 20)):
            depth = rng.randint(1, 20)
            col = sorted((F(rng.randint(0, 16), 16) for _ in range(depth)), reverse=True)
            want.append(tuple(col))
        assert inst.sorted_unit_matrix(random.Random(s)) == tuple(want)


def test_kdisjoint_family_respects_coverage_and_norms():
    for s in SEEDS:
        k, vecs = inst.kdisjoint_family(random.Random(s))
        assert 1 <= k <= 5
        assert 1 <= len(vecs) <= 50
        coords = len(vecs[0])
        for c in range(coords):
            assert sum(1 for v in vecs if v[c]) <= k
        for v in vecs:
            assert l2_norm_sq(v) <= 1


def test_covered_generators_have_small_degree():
    for s in SEEDS:
        eps = (F(1, 4), F(1, 16), F(1, 64))[s % 3]
        seqs = inst.covered_generators(random.Random(s), eps, max_m=200, max_row=50)
        m = len(seqs)
        assert m <= 200
        assert all(len(q.m) <= 50 for q in seqs)
        assert disjointness_degree(seqs) <= eps * m
        assert row_norm_sq(average_indicators(seqs)) <= eps


def test_covered_generators_reject_tiny_cap():
    try:
        inst.covered_generators(random.Random(0), F(1, 64), max_m=10, max_row=50)
    except ValueError as exc:
        assert "cap" in str(exc) or "max_m" in str(exc)
    else:
        raise AssertionError("cap violation not rejected")


def test_blocked_squares_shape():
    for s in SEEDS:
        values_sq, breaks = inst.blocked_squares(random.Random(s))
        assert breaks[0] == 0 and breaks[-1] == len(values_sq)
        assert list(breaks) == sorted(set(breaks))
        assert all(v >= 0 for v in values_sq)


def test_unit_vector_is_exactly_unit():
    for s in SEEDS:
        b = inst.unit_vector(random.Random(s))
        assert l2_norm_sq(b) == 1
        assert 1 <= len(b) <= 8


def test_body_element_reps_are_unit_members():
    for s in SEEDS:
        signed, weights, reps = inst.body_element(random.Random(s), P)
        assert sum(weights) == 1
        assert all(w > 0 for w in weights)
        for rep in reps:
            assert rep.is_unit_member()
        # the signed element matches the weighted sum except possibly for signs
        total = None
        for w, rep in zip(weights, reps):
            piece = rep.element().scale(w)
            total = piece if total is None else total + piece
        entries = dict(total.items())
        for cell, v in signed.items():
            assert abs(v) == entries[cell]


def test_micro_instance_stays_in_three_rows():
    units = 0
    for s in range(100):
        x, is_unit = inst.micro_instance(random.Random(s))
        assert x.max_row <= 3
        if is_unit:
            units += 1
            rows = x.active_rows()
            assert len(rows) == 1
            i = rows[0]
            assert all(x.row_entries(i).get(j) == 1 for j in range(1, i + 1))
    assert units > 0


def test_split_instance_small_and_nonnegative():
    for s in SEEDS:
        eps = (F(1, 4), F(1, 16))[s % 2]
        weights, reps = inst.split_instance(random.Random(s), P, eps)
        assert sum(weights) <= 1
        assert all(w > 0 for w in weights)
        for rep in reps:
            assert rep.element().is_nonnegative()
            assert rep.element().sup_norm() <= eps


def test_merge_family_members_are_disjoint_units():
    fam = inst.merge_family(random.Random(3), P)
    assert len(fam) == 50
    rows_seen: set[int] = set()
    for rep in fam:
        rows = rep.element().active_rows()
        assert not rows_seen.intersection(rows)
        rows_seen.update(rows)
        assert rep.is_unit_member()
