"""Tests for the decomposition pipeline.

The partition tests drive a stateless oracle built from reduce_step (a
one-reduction reference kept here) and compare it against the pointer
implementation cell for cell; subset selection is checked against brute
force over all subsets.  The integer partition layer is also compared,
results and errors alike, with the Fraction code it replaced.
"""

import dataclasses
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from trigauge import decompose, instances
from trigauge.core import DEFAULT_P, TriVector, lorentz_le_sq, row_norm_sq
from trigauge.decompose import (
    DisjointRep,
    PartitionResult,
    _validate_partition,
    block_conditions_sq,
    column_blocking,
    decompose_average,
    join_disjoint_reps,
    make_disjoint_rep,
    merge_representatives,
    partition_matrix,
    select_subset,
    split_element,
    theta_for,
)
from trigauge.gauge import GaugeCertificate
from trigauge.generators import (
    GridSeq,
    HullCertificate,
    ZERO_SEQ,
    average_indicators,
    hull_min_scale,
    indicator_sum,
)

P = DEFAULT_P

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=32)


# -- subset selection ----------------------------------------------------------


def brute_force_valid(values, picked):
    total = sum((values[i] for i in picked), F(0))
    return F(1, 2) <= total <= 1


class TestSelectSubset:
    def test_first_large_entry_wins(self):
        assert select_subset([F(3, 5), F(3, 5)]) == (0,)

    def test_greedy_prefix(self):
        assert select_subset([F(3, 10)] * 4) == (0, 1)

    def test_boundary_one(self):
        assert select_subset([F(1), F(1, 5)]) == (0,)

    def test_zero_entries_skipped(self):
        assert select_subset([0, F(2, 5), 0, F(2, 5), F(2, 5)]) == (1, 3)

    def test_total_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            select_subset([F(1, 2), F(1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            select_subset([F(3, 2)])

    @given(st.lists(fractions_01, min_size=2, max_size=12))
    def test_matches_brute_force_validity(self, values):
        if sum(values) <= 1:
            with pytest.raises(ValueError):
                select_subset(values)
            return
        picked = select_subset(values)
        assert len(set(picked)) == len(picked)
        assert all(0 <= i < len(values) for i in picked)
        assert brute_force_valid(values, picked)


# -- matrix reduction and partition --------------------------------------------


def sorted_matrix(draw_cols):
    return tuple(tuple(sorted(col, reverse=True)) for col in draw_cols)


matrices = st.lists(
    st.lists(fractions_01, min_size=0, max_size=5), min_size=0, max_size=6
).map(sorted_matrix)


def reduce_step(cols):
    """One reduction: remove the top entries of a column subset with mass >= 1/2.

    The tops are the first nonzero entry of every column (the column
    maximum once columns are sorted).  Returns None when their total is at
    most 1 (the matrix is irreducible).  Columns keep their positions;
    removed cells become zeros.
    """
    cols = tuple(tuple(F(v) for v in col) for col in cols)
    if any(v < 0 or v > 1 for col in cols for v in col):
        raise ValueError("matrix entries must lie in [0, 1]")
    tops = [(j, next(v for v in col if v)) for j, col in enumerate(cols) if any(col)]
    if sum((v for _, v in tops), F(0)) <= 1:
        return None
    selected = frozenset(tops[i][0] for i in select_subset_reference([v for _, v in tops]))
    new_cols = []
    for j, col in enumerate(cols):
        if j in selected:
            first = next(i for i, v in enumerate(col) if v)
            col = col[:first] + (F(0),) + col[first + 1 :]
        new_cols.append(col)
    return selected, tuple(new_cols)


def oracle_partition(cols):
    """Partition via repeated reduce_step calls, then a leftover sweep."""
    cols = tuple(tuple(F(v) for v in col) for col in cols)
    removed = [0] * len(cols)
    parts = []
    state = cols
    while True:
        step = reduce_step(state)
        if step is None:
            break
        selected, state = step
        parts.append(frozenset((removed[j], j) for j in selected))
        for j in selected:
            removed[j] += 1
    for depth in range(max((len(c) for c in cols), default=0)):
        part = frozenset(
            (depth, j) for j in range(len(cols)) if removed[j] <= depth < len(cols[j])
        )
        if part:
            parts.append(part)
    return tuple(parts)


class TestReduceStep:
    def test_two_unit_columns(self):
        selected, reduced = reduce_step(((F(1),), (F(1),)))
        assert selected == frozenset({0})
        assert reduced == ((F(0),), (F(1),))

    def test_zero_matrix_irreducible(self):
        assert reduce_step(((F(0),),)) is None

    def test_small_tops_irreducible(self):
        assert reduce_step(((F(2, 5),), (F(2, 5),))) is None

    def test_unsorted_allowed_first_nonzero_semantics(self):
        selected, reduced = reduce_step(((F(1, 2), F(1)), (F(3, 4), F(0))))
        assert selected == frozenset({0, 1}) or selected == frozenset({0})
        # the removed entries are the first nonzero per column
        assert brute_force_valid([F(1, 2), F(3, 4)], sorted(selected))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reduce_step(((F(3, 2),),))


class TestPartitionMatrix:
    def test_two_unit_columns(self):
        res = partition_matrix(((F(1),), (F(1),)))
        assert res.reductions == 1
        assert res.parts == (frozenset({(0, 0)}), frozenset({(0, 1)}))

    def test_zero_matrix_yields_leftover_parts(self):
        res = partition_matrix(((F(0),), (F(0),)))
        assert res.reductions == 0
        assert res.parts == (frozenset({(0, 0), (0, 1)}),)

    def test_empty_matrix(self):
        res = partition_matrix(())
        assert res.parts == () and res.reductions == 0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            partition_matrix(((F(1, 2), F(1)),))

    @given(matrices)
    @settings(max_examples=150)
    def test_matches_reduce_step_oracle(self, cols):
        res = partition_matrix(cols)
        assert res.parts == oracle_partition(cols)

    @given(matrices)
    @settings(max_examples=150)
    def test_postconditions(self, cols):
        res = partition_matrix(cols)
        total = sum((v for col in cols for v in col), F(0))
        seen = set()
        for part in res.parts:
            colums = [j for _, j in part]
            assert len(set(colums)) == len(colums)
            assert sum((cols[j][d] for d, j in part), F(0)) <= 1
            assert not (part & seen)
            seen |= part
        assert seen == {(d, j) for j, col in enumerate(cols) for d in range(len(col))}
        if total > 0:
            assert res.reductions < 2 * total
        max_depth = max((len(c) for c in cols), default=0)
        assert len(res.parts) <= res.reductions + max_depth

    def test_reduction_bound_fires_on_a_weak_selection(self, monkeypatch):
        # Picking one column of 1/4 per reduction removes too little mass:
        # mass 2 takes four reductions, reaching the 2M bound the real
        # selection rule stays under.
        monkeypatch.setattr(decompose, "_select_over", lambda values, denom: (0,))
        with pytest.raises(AssertionError, match="reduction count reached 2 \\* mass"):
            partition_matrix(((F(1, 4),),) * 8)


class TestValidatePartition:
    """Each rejection of the partition checker, on hand-built bogus parts.

    Columns are numerators over the denominator that follows them.
    """

    @pytest.mark.parametrize(
        "cols, denom, parts, message",
        [
            # a zero column of depth 1 allows 2 * 0 + 1 parts
            (((0,),), 1, ({(0, 0)}, set()), "part count above 2M \\+ k"),
            (((1,),), 2, ({(0, 0), (1, 0)},), "outside the matrix"),
            (((1, 1),), 4, ({(0, 0), (1, 0)},), "two cells of one column"),
            (((1,), (1,)), 1, ({(0, 0), (0, 1)},), "part sum exceeds 1"),
            (((1,),), 2, ({(0, 0)}, {(0, 0)}), "cell in two parts"),
            (((1,), (1,)), 2, ({(0, 0)},), "cells lost"),
        ],
        ids=["2M+k", "invented", "column-twice", "sum", "overlap", "lost"],
    )
    def test_rejects(self, cols, denom, parts, message):
        with pytest.raises(AssertionError, match=message):
            _validate_partition(cols, denom, tuple(frozenset(part) for part in parts))

    def test_accepts_a_valid_partition(self):
        cols = ((2, 1), (1,))  # (1, 1/2) and (1/2) over 2
        _validate_partition(cols, 2, (frozenset({(0, 0)}), frozenset({(1, 0), (0, 1)})))


# -- the integer partition layer against the Fraction code it replaced ---------
#
# select_subset, partition_matrix and _validate_partition as they were when
# they computed in Fractions, kept verbatim as references (names suffixed,
# parameter annotations dropped, Fraction imported as F).


def select_subset_reference(values) -> tuple[int, ...]:
    """Indices (0-based) of a subset with sum in [1/2, 1].

    Requires values in [0, 1] with total > 1.  Takes the first single
    value >= 1/2 when one exists, otherwise the shortest prefix of the
    positive entries reaching 1/2; either way the selected sum cannot
    exceed 1.
    """
    vals = [F(v) for v in values]
    if any(v < 0 or v > 1 for v in vals):
        raise ValueError("values must lie in [0, 1]")
    if sum(vals) <= 1:
        raise ValueError("total must exceed 1")
    half = F(1, 2)
    for idx, v in enumerate(vals):
        if v >= half:
            return (idx,)
    chosen: list[int] = []
    acc = F(0)
    for idx, v in enumerate(vals):
        if v == 0:
            continue
        chosen.append(idx)
        acc += v
        if acc >= half:
            return tuple(chosen)
    raise AssertionError("unreachable: total exceeds 1")


def _check_entries_reference(cols) -> None:
    for col in cols:
        for v in col:
            if v < 0 or v > 1:
                raise ValueError("matrix entries must lie in [0, 1]")


def _check_sorted_reference(cols) -> None:
    for col in cols:
        if any(a < b for a, b in zip(col, col[1:])):
            raise ValueError("columns must be sorted nonincreasing")


def partition_matrix_reference(cols) -> PartitionResult:
    """Partition the cells of a sorted [0,1] matrix.

    Runs reductions until the top entries sum to at most 1, then sweeps
    the leftover cells at each depth into one part apiece (their sums
    are dominated by the final top sums, hence <= 1).  The number of
    reductions is less than twice the total mass.  Cell addresses are
    (depth from the top of the column, column index); every cell lands
    in exactly one part, zero cells always in a leftover part.
    """
    cols = tuple(tuple(F(v) for v in col) for col in cols)
    _check_entries_reference(cols)
    _check_sorted_reference(cols)
    # Each round removes the top remaining cell of a column subset whose
    # tops sum to at least 1/2 (``select_subset``); cells above pointers[j]
    # are removed.  Sortedness puts nonzero cells first, so pointers only
    # ever traverse nonzero prefixes.
    pointers = [0] * len(cols)
    nonzero = [sum(1 for v in col if v) for col in cols]
    parts: list[frozenset[tuple[int, int]]] = []
    total = sum((v for col in cols for v in col), F(0))
    while True:
        tops = [
            (j, cols[j][pointers[j]])
            for j in range(len(cols))
            if pointers[j] < nonzero[j]
        ]
        if sum((v for _, v in tops), F(0)) <= 1:
            break
        picked = select_subset_reference([v for _, v in tops])
        part = []
        for i in picked:
            j = tops[i][0]
            part.append((pointers[j], j))
            pointers[j] += 1
        parts.append(frozenset(part))
    reductions = len(parts)
    if total > 0 and reductions >= 2 * total:
        raise AssertionError("reduction count reached 2 * mass")
    max_depth = max((len(col) for col in cols), default=0)
    for depth in range(max_depth):
        part = frozenset(
            (depth, j) for j in range(len(cols)) if pointers[j] <= depth < len(cols[j])
        )
        if part:
            parts.append(part)
    _validate_partition_reference(cols, parts)
    return PartitionResult(tuple(parts), reductions)


def _validate_partition_reference(cols, parts) -> None:
    """Raise unless parts partition the cells, each holding at most one
    cell per column with sum <= 1, in at most 2M + k parts (M the mass,
    k the deepest column)."""
    mass = sum((v for col in cols for v in col), F(0))
    deepest = max((len(col) for col in cols), default=0)
    if len(parts) > 2 * mass + deepest:
        raise AssertionError("part count above 2M + k")
    cells = {(d, j) for j, col in enumerate(cols) for d in range(len(col))}
    seen: set[tuple[int, int]] = set()
    for part in parts:
        if not part <= cells:
            raise AssertionError("cell outside the matrix in a part")
        by_col: set[int] = set()
        total = F(0)
        for depth, j in part:
            if j in by_col:
                raise AssertionError("two cells of one column in a part")
            by_col.add(j)
            total += cols[j][depth]
        if total > 1:
            raise AssertionError("part sum exceeds 1")
        if part & seen:
            raise AssertionError("cell in two parts")
        seen |= part
    if seen != cells:
        raise AssertionError("cells lost by partition")


def outcome(fn, *args):
    """What fn returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


# exact halves and ones make the 2v >= D and part-sum boundaries bite
boundary_01 = st.one_of(fractions_01, st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)]))
select_inputs = st.one_of(
    st.lists(boundary_01, min_size=1, max_size=12),
    st.lists(st.fractions(-1, 2, max_denominator=4), min_size=1, max_size=6),
)
# the benchmark's partition draws: up to 20 columns of up to 20 values k/16
sixteenths = st.lists(
    st.lists(st.integers(0, 16).map(lambda k: F(k, 16)), min_size=1, max_size=20),
    min_size=1,
    max_size=20,
).map(sorted_matrix)
boundary_matrices = st.lists(
    st.lists(boundary_01, min_size=0, max_size=5), min_size=0, max_size=6
).map(sorted_matrix)
# unsorted, possibly out of range: both input errors
raw_matrices = st.lists(
    st.lists(st.fractions(F(-1, 4), F(5, 4), max_denominator=8), max_size=4), max_size=4
)


@st.composite
def squared_coefficient_matrices(draw):
    """Columns of (count / i)^2 for rows i up to 12, as decompose_average
    builds them; mixing rows gives common denominators near lcm(1..12)^2."""
    cols = []
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(1, 12))
        counts = draw(st.lists(st.integers(0, i), min_size=1, max_size=12))
        cols.append(tuple(F(c * c, i * i) for c in sorted(counts, reverse=True)))
    return tuple(cols)


any_matrix = st.one_of(
    matrices, boundary_matrices, sixteenths, squared_coefficient_matrices(), raw_matrices
)


def over_common_denominator(cols):
    denom = lcm(*(F(v).denominator for col in cols for v in col))
    return tuple(tuple(int(F(v) * denom) for v in col) for col in cols), denom


@st.composite
def edited_partitions(draw):
    """A matrix with its reference partition after up to three random edits:
    cells added (possibly outside the matrix) or removed, parts added or
    dropped.  Most edits break the partition in one of the checked ways."""
    cols = draw(st.one_of(matrices, boundary_matrices, squared_coefficient_matrices()))
    parts = [set(part) for part in partition_matrix_reference(cols).parts]
    depth = max((len(col) for col in cols), default=0)
    cell = st.tuples(st.integers(0, depth), st.integers(0, len(cols)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("add", "remove", "new", "drop")))
        if kind == "new" or not parts:
            parts.append(set(draw(st.lists(cell, max_size=3))))
            continue
        part = parts[draw(st.integers(0, len(parts) - 1))]
        if kind == "add":
            part.add(draw(cell))
        elif kind == "remove" and part:
            part.discard(draw(st.sampled_from(sorted(part))))
        elif kind == "drop":
            parts.remove(part)
    return cols, tuple(frozenset(part) for part in parts)


class TestIntegerPartitionIdentity:
    """Same results and same errors as the Fraction reference."""

    @given(select_inputs)
    @settings(max_examples=200)
    def test_select_subset(self, values):
        assert outcome(select_subset, values) == outcome(select_subset_reference, values)

    @given(any_matrix)
    @settings(max_examples=200)
    def test_partition_matrix(self, cols):
        assert outcome(partition_matrix, cols) == outcome(partition_matrix_reference, cols)

    @given(edited_partitions())
    @settings(max_examples=200)
    def test_validate_partition(self, case):
        cols, parts = case
        ints, denom = over_common_denominator(cols)
        assert outcome(_validate_partition, ints, denom, parts) == outcome(
            _validate_partition_reference, cols, parts
        )

    @pytest.mark.parametrize(
        "values, picked",
        [
            ([F(1, 4), F(1, 2), F(3, 4)], (1,)),
            ([F(1, 4), F(1, 4), F(3, 8), F(3, 8)], (0, 1)),
            ([F(0), F(1), F(1)], (1,)),
        ],
        ids=["half-first", "prefix-half", "ones"],
    )
    def test_select_boundaries(self, values, picked):
        assert select_subset(values) == select_subset_reference(values) == picked


# -- column blocking and the threshold -----------------------------------------


class TestColumnBlocking:
    def test_half_masses(self):
        assert column_blocking([F(1, 2)] * 3, F(3, 5)) == (0, 2, 3)

    def test_all_zero(self):
        assert column_blocking([0, 0, 0, 0], F(1)) == (0, 4)

    def test_empty(self):
        assert column_blocking([], F(1)) == (0,)

    @given(
        st.lists(fractions_01, min_size=1, max_size=20),
        st.fractions(min_value="1/10", max_value=3, max_denominator=20),
    )
    def test_greedy_minimality(self, masses, threshold):
        breaks = column_blocking(masses, threshold)
        assert breaks[0] == 0 and breaks[-1] == len(masses)
        assert list(breaks) == sorted(set(breaks))
        for m in range(len(breaks) - 1):
            mass = sum(masses[breaks[m] : breaks[m + 1]], F(0))
            if m < len(breaks) - 2:
                assert mass > threshold
                # greedy: dropping the last column dips back under
                assert sum(masses[breaks[m] : breaks[m + 1] - 1], F(0)) <= threshold


class TestThetaFor:
    def test_certifying_inequalities_hold(self):
        for eps in (F(1, 4), F(1, 16), F(9, 10), F(1, 1000)):
            th = theta_for(eps, P)
            assert eps**P.num <= (2 * th / (1 + th)) ** (4 * P.den)
            assert (2 * th + 3 * eps) ** 4 <= 625 * eps

    def test_close_to_true_threshold(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for eps in (F(1, 4), F(1, 16), F(3, 7)):
                true_threshold = 1 / (
                    2 * mp.mpf(1) / mp.root(mp.mpf(eps.numerator) / eps.denominator, 8) ** 3 - 1
                )
                th = theta_for(eps, P)
                assert true_threshold <= float(th) < float(true_threshold) * (1 + 1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theta_for(F(0), P)
        with pytest.raises(ValueError):
            theta_for(F(1), P)


# -- the decomposition pipeline -------------------------------------------------


FOUR_ROWS = [GridSeq((1,)), GridSeq((0, 2)), GridSeq((0, 0, 3)), GridSeq((0, 0, 0, 4))]


def pieces_average(cert):
    """(1/M) sum of the indicators of the certificate's pieces."""
    return indicator_sum((piece for blk in cert.blocks for piece in blk.pieces), cert.m_count)


class TestDecomposeAverage:
    def test_four_full_rows_frozen(self):
        cert = decompose_average(FOUR_ROWS, F(1, 4), P)
        assert cert.k == 1
        assert cert.columns == (1, 2, 3, 4)
        assert cert.breakpoints == (0, 2, 4)
        assert [b.reductions for b in cert.blocks] == [1, 1]
        assert [b.part_count for b in cert.blocks] == [2, 2]
        assert [b.block_norm_sq for b in cert.blocks] == [F(1, 8), F(1, 8)]
        assert [[p.m for p in b.pieces] for b in cert.blocks] == [
            [(1,), (0, 2)],
            [(0, 0, 3), (0, 0, 0, 4)],
        ]
        # scale is the upper end of the enclosure of 2^(-5/6) ~ 0.5612
        assert cert.scale**6 >= F(1, 32)
        assert float(cert.scale) == pytest.approx(2 ** (-5 / 6), rel=1e-9)
        cert.validate(FOUR_ROWS)

    def test_reassembly_identity(self):
        cert = decompose_average(FOUR_ROWS, F(1, 4), P)
        assert pieces_average(cert) == average_indicators(FOUR_ROWS)

    def test_zero_family(self):
        cert = decompose_average([ZERO_SEQ, ZERO_SEQ], F(1, 2), P)
        assert cert.blocks == () and cert.scale == 0
        cert.validate([ZERO_SEQ, ZERO_SEQ])

    def test_sup_above_eps_rejected(self):
        with pytest.raises(ValueError):
            decompose_average([GridSeq((1,)), GridSeq((1,))], F(1, 4), P)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            decompose_average(FOUR_ROWS, F(1), P)
        with pytest.raises(ValueError):
            decompose_average([], F(1, 2), P)

    @given(
        st.lists(
            st.sampled_from(
                [
                    GridSeq((1,)),
                    GridSeq((0, 2)),
                    GridSeq((0, 1)),
                    GridSeq((0, 0, 2)),
                    GridSeq((0, 1, 2)),
                    GridSeq((0, 0, 0, 3)),
                    ZERO_SEQ,
                ]
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_families(self, seqs):
        from trigauge.generators import disjointness_degree

        seqs = seqs + [ZERO_SEQ]  # keeps the degree strictly below M
        degree = disjointness_degree(seqs)
        eps = F(max(degree, 1), len(seqs))
        cert = decompose_average(seqs, eps, P)
        cert.validate(seqs)
        assert pieces_average(cert) == average_indicators(seqs)
        assert cert.scale**4 <= 625 * eps

    def test_verifier_catches_tampering(self):
        cert = decompose_average(FOUR_ROWS, F(1, 4), P)
        bad_k = dataclasses.replace(cert, k=2)
        with pytest.raises(AssertionError, match="stored k is not floor"):
            bad_k.validate(FOUR_ROWS)
        bad_scale = dataclasses.replace(cert, scale=cert.scale / 2)
        with pytest.raises(AssertionError, match="stored scale below the certified"):
            bad_scale.validate(FOUR_ROWS)
        bad_theta = dataclasses.replace(cert, theta=F(1, 10))
        with pytest.raises(AssertionError, match="theta below the blocking threshold"):
            bad_theta.validate(FOUR_ROWS)
        bad_breaks = dataclasses.replace(cert, breakpoints=(0, 1, 2, 4))
        with pytest.raises(AssertionError, match="non-final block 0 mass 1 not above"):
            bad_breaks.validate(FOUR_ROWS)
        blk = cert.blocks[0]
        bad_piece = dataclasses.replace(blk, pieces=(blk.pieces[0],))
        bad_blocks = dataclasses.replace(cert, blocks=(bad_piece, cert.blocks[1]))
        with pytest.raises(AssertionError, match="block 0: stored seminorm square is wrong"):
            bad_blocks.validate(FOUR_ROWS)
        # the same dropped piece with its seminorm square recomputed gets
        # past the per-block checks to the reassembly check
        norm_sq = row_norm_sq(bad_blocks.block_vector(0))
        renormed = dataclasses.replace(bad_piece, block_norm_sq=norm_sq)
        bad_counts = dataclasses.replace(cert, blocks=(renormed, cert.blocks[1]))
        with pytest.raises(AssertionError, match="coordinate 2: counts not preserved"):
            bad_counts.validate(FOUR_ROWS)
        bad_norm = dataclasses.replace(blk, block_norm_sq=F(1, 9))
        bad_blocks2 = dataclasses.replace(cert, blocks=(bad_norm, cert.blocks[1]))
        with pytest.raises(AssertionError, match="block 0: stored seminorm square is wrong"):
            bad_blocks2.validate(FOUR_ROWS)
        with pytest.raises(AssertionError, match="built for 4 sequences, got 3"):
            cert.validate(FOUR_ROWS[:3])


# -- block conditions -----------------------------------------------------------


class TestBlockConditions:
    def test_single_entry(self):
        assert block_conditions_sq([F(1)], (0, 1), P)

    def test_two_blocks_unit_entries(self):
        assert block_conditions_sq([1, 1], (0, 1, 2), P)

    def test_large_second_block_fails(self):
        assert not block_conditions_sq([1, F(9, 4)], (0, 1, 2), P)

    def test_tail_entry_above_cutoff_fails(self):
        # second block Lorentz fine, but entry 1 > 1^(-1/p) is allowed;
        # push the breakpoint to 2: entries after n_1 = 2 must be <= 2^(-2/3)
        assert not block_conditions_sq([F(1), F(1, 4), F(1, 2)], (0, 2, 3), P)

    def test_malformed_breakpoints(self):
        with pytest.raises(ValueError):
            block_conditions_sq([1, 1], (0, 1), P)
        with pytest.raises(ValueError):
            block_conditions_sq([1], (1,), P)
        with pytest.raises(ValueError):
            block_conditions_sq([1, 1], (0, 2, 2), P)

    @given(
        st.lists(
            st.lists(
                st.fractions(min_value=0, max_value="1/4", max_denominator=16),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=80)
    def test_passing_conditions_imply_lorentz_two(self, blocks):
        # scale each block to pass condition (1), then filter with the
        # checker itself and assert the composite Lorentz bound
        values_sq: list[F] = []
        breaks = [0]
        for block in blocks:
            values_sq.extend(block)
            breaks.append(len(values_sq))
        if not block_conditions_sq(values_sq, breaks, P):
            return
        assert lorentz_le_sq(values_sq, 4, P)


# -- representatives, merge, split ----------------------------------------------


def full_row(r):
    return GridSeq(tuple(0 if i != r else r for i in range(1, r + 1))).indicator()


def single_cell(r):
    return GridSeq(tuple(0 if i != r else 1 for i in range(1, r + 1))).indicator()


def unit_rep(pieces):
    """``make_disjoint_rep`` with each piece's minimal-scale hull certificate."""
    return make_disjoint_rep(pieces, P, [hull_min_scale(piece)[1] for piece in pieces])


@st.composite
def rep_cases(draw):
    """Pieces, certificates and stored seminorm squares for a representative.

    Each piece is a scaled run of cells on one row; rows may repeat.  Its
    certificate covers it at the exact scale, at twice it (above 1 for
    large pieces) or at half it (invalid), and now and then one is
    dropped.  The stored squares are the true ones or have one changed.
    The pieces run up to seminorm 2, so the Lorentz bound fails too.
    """
    pieces, certs = [], []
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, 5))
        seq = GridSeq((0,) * (i - 1) + (draw(st.integers(1, i)),))
        s = draw(st.fractions(min_value=F(1, 8), max_value=2, max_denominator=8))
        w = draw(st.sampled_from((F(1), F(1, 2))))
        factor = draw(st.sampled_from((F(1), F(1), F(2), F(1, 2))))
        pieces.append(seq.indicator().scale(s))
        certs.append(HullCertificate((seq,), (w,), s / w * factor))
    if certs and draw(st.integers(0, 9)) == 0:
        certs.pop(draw(st.integers(0, len(certs) - 1)))
    norms = [row_norm_sq(piece) for piece in pieces]
    if norms and draw(st.booleans()):
        k = draw(st.integers(0, len(norms) - 1))
        norms[k] += draw(st.sampled_from((F(-1, 64), F(1, 64))))
    return tuple(pieces), tuple(certs), tuple(norms)


class TestDisjointRep:
    @settings(max_examples=300, deadline=None)
    @given(rep_cases())
    def test_make_succeeds_exactly_on_unit_members(self, case):
        pieces, certs, norms = case
        try:
            built = make_disjoint_rep(pieces, P, certs)
        except (AssertionError, ValueError):
            built = None
        stored = DisjointRep(pieces, certs, norms, P, F(1))
        assert stored.is_unit_member() == (built is not None and built.norms_sq == norms)
        if built is not None:
            assert built.is_unit_member()
            assert built == dataclasses.replace(stored, norms_sq=built.norms_sq)

    def test_min_scale_certificates(self):
        rep = unit_rep([full_row(1), single_cell(2)])
        assert rep.length == 2
        assert rep.norms_sq == (F(1), F(1, 4))
        assert rep.is_unit_member()
        assert [c.scale for c in rep.certs] == [1, 1]
        assert rep.max_norm_sq() == F(1)

    def test_hull_scale_above_one_rejected(self):
        # the certificate is valid at scale 4, so only the scale check sees it
        seq = GridSeq((0, 2))
        piece = seq.indicator().scale(F(1, 2))
        cert = HullCertificate((seq,), (F(1, 4),), F(4))
        cert.validate(piece)
        with pytest.raises(ValueError, match="hull scale above 1"):
            make_disjoint_rep([piece], P, [cert])
        forged = DisjointRep((piece,), (cert,), (row_norm_sq(piece),), P, F(1))
        assert not forged.is_unit_member()
        with pytest.raises(AssertionError, match="not a unit member"):
            GaugeCertificate((F(1),), (forged,), F(1)).validate(piece)

    def test_row_sharing_rejected(self):
        with pytest.raises(ValueError):
            unit_rep([full_row(2), single_cell(2)])

    def test_lorentz_violation_rejected(self):
        with pytest.raises(ValueError):
            unit_rep([full_row(1), full_row(2)])

    def test_element_is_sum(self):
        rep = unit_rep([single_cell(3), single_cell(4)])
        assert rep.element() == single_cell(3) + single_cell(4)

    def test_forged_stored_fields_rejected(self):
        # stored seminorm 0 and a one-cell certificate at scale 1 would
        # present 50 * e_(1,1) as a unit member if the fields were trusted
        x = TriVector({(1, 1): F(50)})
        bogus = HullCertificate((GridSeq((1,)),), (F(1),), F(1))
        forged = DisjointRep((x,), (bogus,), (F(0),), P, F(1))
        assert not forged.is_unit_member()
        cert = GaugeCertificate((F(1),), (forged,), F(1))
        with pytest.raises(AssertionError):
            cert.validate(x)
        # either lie alone is caught: right seminorm, or right certificate
        assert not dataclasses.replace(forged, norms_sq=(F(2500),)).is_unit_member()
        honest = HullCertificate((GridSeq((1,)),), (F(1),), F(50))
        assert not dataclasses.replace(forged, certs=(honest,)).is_unit_member()

    def test_shared_rows_rejected(self):
        rep = unit_rep([single_cell(2)])
        doubled = dataclasses.replace(
            rep,
            pieces=rep.pieces * 2,
            certs=rep.certs * 2,
            norms_sq=rep.norms_sq * 2,
        )
        assert not doubled.is_unit_member()


class TestJoinDisjointReps:
    def test_equals_make_on_concatenated_pieces(self):
        groups = [
            [],
            [[full_row(1)]],
            [[full_row(1)], [single_cell(2)]],
            [[single_cell(3), single_cell(4)], [full_row(2).scale(F(1, 2))]],
            [[single_cell(2)], [single_cell(4)], [full_row(3).scale(F(1, 3))]],
        ]
        for group in groups:
            reps = [unit_rep(pieces) for pieces in group]
            joined = join_disjoint_reps(reps, P, 1)
            pieces = [piece for rep in reps for piece in rep.pieces]
            certs = [cert for rep in reps for cert in rep.certs]
            assert joined == make_disjoint_rep(pieces, P, certs=certs)
            assert joined.is_unit_member()

    def test_shared_rows_rejected(self):
        reps = [unit_rep([full_row(2)]), unit_rep([single_cell(2)])]
        with pytest.raises(ValueError, match="share a row"):
            join_disjoint_reps(reps, P, 1)

    def test_lorentz_violation_rejected(self):
        # each unit row passes alone; two pieces at seminorm 1 do not
        reps = [unit_rep([full_row(1)]), unit_rep([full_row(2)])]
        with pytest.raises(ValueError, match="Lorentz"):
            join_disjoint_reps(reps, P, 1)
        # at squared bound 4 they pass: 2^(1/p) <= 2
        assert join_disjoint_reps(reps, P, 4).lorentz_sq_bound == 4


class TestMerge:
    def test_single_rep(self):
        rep = unit_rep([full_row(1), single_cell(2)])
        res = merge_representatives([rep], P)
        assert res.selected == (0,)
        assert res.breakpoints == (0, 2)
        assert res.half_sum().is_unit_member()

    def test_constant_max_norm_keeps_first(self):
        reps = [
            unit_rep([full_row(1), single_cell(2)]),
            unit_rep([full_row(3), single_cell(4)]),
            unit_rep([full_row(5), single_cell(6)]),
        ]
        res = merge_representatives(reps, P)
        assert res.selected == (0,)

    def test_decaying_norms_keep_all(self):
        reps = [
            unit_rep([single_cell(10), single_cell(11)]),
            unit_rep([single_cell(12), single_cell(13)]),
            unit_rep([single_cell(14), single_cell(15)]),
        ]
        res = merge_representatives(reps, P)
        assert res.selected == (0, 1, 2)
        assert res.merged.length == 6
        assert lorentz_le_sq(res.merged.norms_sq, 4, P)
        # prefixes stay certified: every prefix of the selection passes
        # the block conditions on its own
        for end in range(1, len(res.breakpoints)):
            bp = res.breakpoints[: end + 1]
            assert block_conditions_sq(res.merged.norms_sq[: bp[-1]], bp, P)

    def test_shared_rows_rejected(self):
        rep = unit_rep([full_row(1)])
        with pytest.raises(ValueError):
            merge_representatives([rep, rep], P)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_representatives([], P)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_merged_and_half_equal_make_on_the_concatenation(self, seed):
        # the checked fields are reused, so both equal a rebuild from scratch
        family = instances.merge_family(random.Random(seed), P)[:20]
        res = merge_representatives(family, P)
        pieces = [piece for idx in res.selected for piece in family[idx].pieces]
        certs = [cert for idx in res.selected for cert in family[idx].certs]
        norms = tuple(row_norm_sq(piece) for piece in pieces)
        rebuilt = DisjointRep(tuple(pieces), tuple(certs), norms, P, F(4))
        assert res.merged == join_disjoint_reps([family[i] for i in res.selected], P, 4) == rebuilt
        halved = make_disjoint_rep(
            [piece.scale(F(1, 2)) for piece in pieces],
            P,
            certs=[HullCertificate(c.seqs, c.weights, c.scale / 2) for c in certs],
        )
        assert res.half_sum() == halved

    def test_half_sum_checks_the_lorentz_bound(self):
        res = merge_representatives([unit_rep([full_row(1)])], P)

        def merged_at(c):
            row = full_row(1).scale(c)
            return dataclasses.replace(
                res, merged=dataclasses.replace(res.merged, pieces=(row,), norms_sq=(F(c * c),))
            )

        assert merged_at(2).half_sum().norms_sq == (F(1),)
        with pytest.raises(ValueError, match="Lorentz"):
            merged_at(3).half_sum()

    def test_forged_input_rejected(self):
        reps = [
            unit_rep([single_cell(10), single_cell(11)]),
            unit_rep([single_cell(12), single_cell(13)]),
        ]
        rep = reps[1]
        cert = rep.certs[0]
        forgeries = [
            dataclasses.replace(rep, norms_sq=(F(0),) + rep.norms_sq[1:]),
            dataclasses.replace(
                rep, certs=(dataclasses.replace(cert, scale=cert.scale / 2),) + rep.certs[1:]
            ),
        ]
        for forged in forgeries:
            with pytest.raises(ValueError, match="not a unit member"):
                merge_representatives([reps[0], forged], P)


class TestSplit:
    def test_one_big_piece(self):
        rep = unit_rep([full_row(1), single_cell(20), single_cell(21)])
        res = split_element([F(1, 4)], [rep], F(1, 4), P)
        assert res.front_count == 1
        assert len(res.slices) == 1
        assert res.slices[0] == full_row(1).scale(F(1, 4))
        assert res.gauge_bound == F(1, 4)
        assert [t.length for t in res.tail_reps] == [2]
        assert sum(res.slices, TriVector()) + res.remainder == rep.element().scale(F(1, 4))
        res.validate([rep])

    def test_all_small_pieces(self):
        # explicit certificates: the slice expansion needs combinations
        # that equal the piece, not merely dominate it
        seq30 = GridSeq((0,) * 29 + (1,))
        seq31 = GridSeq((0,) * 30 + (1,))
        certs = [
            HullCertificate((seq30,), (F(1),), F(1)),
            HullCertificate((seq31,), (F(1),), F(1)),
        ]
        rep = make_disjoint_rep([seq30.indicator(), seq31.indicator()], P, certs=certs)
        res = split_element([F(1, 16)], [rep], F(1, 16), P)
        # eps^(-1/8) = 16^(1/8) -> front window 1, but both pieces are
        # small; the slice still holds the largest piece
        assert res.front_count == 1
        assert res.slices == (seq30.indicator().scale(F(1, 16)),)
        res.validate([rep])

    def test_two_reps(self):
        rep1 = unit_rep([full_row(1), single_cell(20)])
        rep2 = unit_rep([full_row(2), single_cell(21)])
        res = split_element([F(1, 8), F(1, 8)], [rep1, rep2], F(1, 4), P)
        res.validate([rep1, rep2])
        assert res.gauge_bound**8 <= 5**8 * F(1, 4)

    def test_sup_above_eps_rejected(self):
        rep = unit_rep([full_row(1)])
        with pytest.raises(ValueError):
            split_element([F(1, 2)], [rep], F(1, 4), P)

    def test_nonpositive_weight_rejected(self):
        rep = unit_rep([single_cell(20)])
        with pytest.raises(ValueError):
            split_element([F(0)], [rep], F(1, 4), P)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tails_equal_make_on_their_pieces(self, seed):
        weights, reps = instances.split_instance(random.Random(seed), P, F(1, 16))
        res = split_element(weights, reps, F(1, 16), P)
        for rep, order, tail in zip(reps, res.orders, res.tail_reps):
            keep = order[res.front_count :]
            assert tail == make_disjoint_rep(
                [rep.pieces[i] for i in keep], P, certs=[rep.certs[i] for i in keep]
            )

    def test_tails_checked_once(self, monkeypatch):
        rep = unit_rep([full_row(1), single_cell(20), single_cell(21)])
        calls = []
        validate = HullCertificate.validate

        def counted(cert, x):
            calls.append(cert)
            return validate(cert, x)

        monkeypatch.setattr(HullCertificate, "validate", counted)
        res = split_element([F(1, 4)], [rep], F(1, 4), P)
        (tail,) = res.tail_reps
        assert tail.length == 2
        # once at the input gate, and a tail's once more, in SplitResult.validate
        for cert in rep.certs:
            in_tail = any(cert is c for c in tail.certs)
            assert sum(1 for c in calls if c is cert) == 1 + in_tail

    def test_forged_input_rejected(self):
        rep = unit_rep([full_row(1), single_cell(20), single_cell(21)])
        cert = rep.certs[2]
        forgeries = [
            dataclasses.replace(rep, norms_sq=rep.norms_sq[:2] + (F(0),)),
            dataclasses.replace(
                rep, certs=rep.certs[:2] + (dataclasses.replace(cert, scale=cert.scale / 2),)
            ),
        ]
        for forged in forgeries:
            with pytest.raises(ValueError, match="not a unit member"):
                split_element([F(1, 4)], [forged], F(1, 4), P)

    def test_verifier_catches_tampering(self):
        rep = unit_rep([full_row(1), single_cell(20), single_cell(21)])
        res = split_element([F(1, 4)], [rep], F(1, 4), P)
        bad = dataclasses.replace(res, gauge_bound=res.gauge_bound * 2)
        with pytest.raises(AssertionError, match="gauge bound is not the sum of slice scales"):
            bad.validate([rep])
        bad2 = dataclasses.replace(res, remainder=res.remainder.scale(F(1, 2)))
        with pytest.raises(AssertionError, match="does not reassemble the element"):
            bad2.validate([rep])
