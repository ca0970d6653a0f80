"""Generator enumeration and hull covering against brute-force oracles."""

import gc
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.optimize import linprog

from trigauge import generators
from trigauge.core import DEFAULT_P, TriVector
from trigauge.decompose import DecompositionBlock, DecompositionCertificate
from trigauge.generators import (
    _MAX_CANDIDATES,
    EnumerationBudgetError,
    GridSeq,
    HullCertificate,
    ZERO_SEQ,
    _enumerate_cached,
    average_indicators,
    disjointness_degree,
    enumerate_grid_seqs,
    hull_min_scale,
    parse_seq_file,
    seq_file_text,
)

from dense_lp import dense_columns, solve_dense


def dominates(a: TriVector, b: TriVector) -> bool:
    """Componentwise a >= b, both sides read as 0 off their supports."""
    return all(a.entry(i, j) >= b.entry(i, j) for i, j in set(a.support()) | set(b.support()))


def brute_enumerate(max_row: int) -> set[tuple[int, ...]]:
    out = set()
    for counts in itertools.product(*(range(i + 1) for i in range(1, max_row + 1))):
        if sum(Fraction(c, i) ** 2 for i, c in enumerate(counts, 1)) <= 1:
            trimmed = counts
            while trimmed and trimmed[-1] == 0:
                trimmed = trimmed[:-1]
            out.add(trimmed)
    return out


def test_enumeration_matches_brute_force():
    for max_row in range(1, 5):
        got = {s.m for s in enumerate_grid_seqs(max_row)}
        assert got == brute_enumerate(max_row)


def test_enumeration_counts_frozen():
    assert len(enumerate_grid_seqs(1)) == 2
    assert len(enumerate_grid_seqs(2)) == 4
    assert len(enumerate_grid_seqs(3)) == 9
    assert len(enumerate_grid_seqs(4)) == 26


def test_enumeration_respects_row_subset():
    seqs = enumerate_grid_seqs((2, 4))
    assert all(set(s.active_rows()) <= {2, 4} for s in seqs)
    assert ZERO_SEQ in seqs
    # full single rows always present
    assert GridSeq((0, 2)) in seqs
    assert GridSeq((0, 0, 0, 4)) in seqs


def test_enumeration_limit_guard():
    # rows 30..39 carry far more than _MAX_CANDIDATES valid sequences
    with pytest.raises(EnumerationBudgetError, match=f"exceeds {_MAX_CANDIDATES}"):
        enumerate_grid_seqs(tuple(range(30, 40)))


def test_gridseq_validation():
    with pytest.raises(ValueError):
        GridSeq((2,))  # row 1 has one cell
    with pytest.raises(ValueError):
        GridSeq((1, 1))  # 1 + 1/4 over budget
    with pytest.raises(ValueError):
        GridSeq((0, -1))
    s = GridSeq((0, 1, 0, 0))
    assert s.m == (0, 1)
    assert s.active_rows() == (2,)


def _outcome(build):
    try:
        return build()
    except ValueError:
        return ValueError


count_maps = st.dictionaries(
    st.integers(-1, 7),
    st.one_of(st.integers(-1, 8), st.sampled_from([Fraction(1, 2), 1.0, 0.0, "1"])),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(enumerate_grid_seqs(5)), count_maps)
@example(ZERO_SEQ, {0: 0})  # row below 1
@example(ZERO_SEQ, {2: 3})  # count above its row
@example(ZERO_SEQ, {1: Fraction(1, 2)})  # non-int count
@example(ZERO_SEQ, {1: 1, 2: 1})  # budget 5/4
def test_count_accessors_and_mapping_constructor(seq, counts):
    padded = seq.m + (0, 0)
    assert [seq.count(i) for i in range(1, len(seq.m) + 3)] == list(padded)
    assert GridSeq.from_counts(dict(seq.pairs())) == seq
    # the mapping constructor is the dense one on the padded counts, and
    # fails exactly where it does, or on a row below 1
    dense = tuple(counts.get(i, 0) for i in range(1, max(counts, default=0) + 1))
    want = ValueError if any(i < 1 for i in counts) else _outcome(lambda: GridSeq(dense))
    assert _outcome(lambda: GridSeq.from_counts(counts)) == want


def test_indicator_cells():
    assert GridSeq((0, 2)).indicator() == TriVector({(2, 1): 1, (2, 2): 1})
    assert ZERO_SEQ.indicator() == TriVector()
    assert GridSeq((0, 0, 2)).indicator().support() == ((3, 1), (3, 2))


def test_seq_line_round_trip():
    for m in [(), (1,), (0, 2), (0, 1, 2)]:
        s = GridSeq(m)
        assert GridSeq.from_line(s.to_line()) == s
    assert GridSeq.from_line("b: 0 2") == GridSeq((0, 2))
    with pytest.raises(ValueError):
        GridSeq.from_line("0 2")
    text = seq_file_text([GridSeq((1,)), ZERO_SEQ])
    assert parse_seq_file("# hi\n" + text) == [GridSeq((1,)), ZERO_SEQ]


def test_min_scale_of_indicators_is_one():
    for s in enumerate_grid_seqs(3):
        if s.m == ():
            continue
        lam, cert = hull_min_scale(s.indicator())
        assert lam == 1
        cert.validate(s.indicator())


def test_min_scale_zero_vector():
    lam, cert = hull_min_scale(TriVector())
    assert lam == 0
    cert.validate(TriVector())


def test_min_scale_convex_average_of_disjoint_rows():
    # (1/2)(full row 1 + full row 2) is a genuine convex combination: the
    # cell (1,1) forces weight 1/2 on row-1 sequences and (2,2) forces 1/2
    # on the full row-2 sequence, so the minimal scale is exactly 1.
    x = average_indicators([GridSeq((1,)), GridSeq((0, 2))])
    lam, _ = hull_min_scale(x)
    assert lam == 1


def test_min_scale_homogeneous():
    x = TriVector({(2, 1): Fraction(1, 3), (3, 2): Fraction(2, 3)})
    lam, _ = hull_min_scale(x)
    lam2, _ = hull_min_scale(x.scale(Fraction(5, 2)))
    assert lam2 == lam * Fraction(5, 2)


small_entry = st.fractions(min_value=0, max_value=2, max_denominator=6)
tri_index3 = st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda t: t[0] >= t[1])
nonneg_vectors3 = st.dictionaries(tri_index3, small_entry, max_size=6).map(TriVector)
tri_index4 = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda t: t[0] >= t[1])


@settings(max_examples=40, deadline=None)
@given(nonneg_vectors3, nonneg_vectors3)
def test_min_scale_is_a_solid_gauge(x, y):
    # each LP runs on its own support rows, which loses nothing
    lx, _ = hull_min_scale(x)
    ly, _ = hull_min_scale(y)
    ls, _ = hull_min_scale(x + y)
    assert ls <= lx + ly  # subadditive
    if dominates(x + y, x):  # always true here; domination monotone
        assert lx <= ls


@settings(max_examples=25, deadline=None)
@given(nonneg_vectors3)
def test_min_scale_matches_scipy(x):
    if x.is_zero():
        return
    lam, _ = hull_min_scale(x)
    seqs = [s for s in enumerate_grid_seqs(x.active_rows()) if s.m]
    cells = x.support()
    a_ub = -np.array(
        [[float(s.indicator().entry(i, j)) for s in seqs] for (i, j) in cells]
    )
    b_ub = -np.array([float(x.entry(i, j)) for (i, j) in cells])
    ref = linprog(
        np.ones(len(seqs)), A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * len(seqs), method="highs"
    )
    assert ref.status == 0
    assert abs(float(lam) - ref.fun) < 1e-8


def full_enumeration_min_scale(x):
    """The covering LP over every generator on the rows of x."""
    seqs = [s for s in enumerate_grid_seqs(x.active_rows()) if s.m]
    cells = x.support()
    mat = [[s.indicator().entry(i, j) for s in seqs] for (i, j) in cells]
    res = solve_dense([1] * len(seqs), mat, [abs(x.entry(i, j)) for (i, j) in cells])
    assert res.status == "optimal"
    return res.objective


def test_pruned_min_scale_matches_full_enumeration():
    rng = random.Random(20261018)
    for _ in range(16):
        rows = sorted(rng.sample(range(1, 7), rng.randint(1, 5)))
        cells = {}
        for i in rows:
            for j in rng.sample(range(1, i + 1), rng.randint(1, min(i, 3))):
                cells[(i, j)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 8))
        x = TriVector(cells)
        lam, cert = hull_min_scale(x)
        assert lam == full_enumeration_min_scale(x)
        assert cert.scale == lam and sum(cert.weights) <= 1
        assert dominates(cert.combination(), abs(x))
        cert.validate(x)


def test_pruned_columns_are_maximal_support_counts():
    # two cells per row on rows 1..6: 7 columns instead of 366
    x = TriVector({(i, j): 1 for i in range(1, 7) for j in {1, i}})
    lam, cert = hull_min_scale(x)
    assert lam == full_enumeration_min_scale(x)
    for s in cert.seqs:
        assert all(m in (0, 1, i) for i, m in enumerate(s.m, start=1))


@pytest.fixture
def lp_programs(monkeypatch):
    """Record the (columns, rhs) of every ``generators.solve_lp`` call."""
    programs = []
    solve = generators.solve_lp

    def record(columns, rhs):
        programs.append((list(columns), list(rhs)))
        return solve(columns, rhs)

    monkeypatch.setattr(generators, "solve_lp", record)
    return programs


def dense_cover_program(x):
    """hull_min_scale's program as a matrix: the pruned tuples as row ->
    count maps, the 0/1 rows (record cell covered by tuple) and |x| on the
    record cells."""
    # record cells: above every entry to their right, in x's order
    cells = [
        (i, j)
        for (i, j), v in x.items()
        if all(abs(v) > abs(x.entry(i, k)) for k in range(j + 1, i + 1))
    ]
    tuples = [counts for counts, _ in generators._covering_tuples(cells, True)]
    mat = [[1 if t[i] >= j else 0 for t in tuples] for i, j in cells]
    return tuples, mat, [abs(x.entry(i, j)) for i, j in cells]


def ones(n):
    return TriVector({(i, j): 1 for i in range(1, n + 1) for j in range(1, i + 1)})


def decr(n):
    return TriVector(
        {(i, j): Fraction(2 * i - j, 2 * i) for i in range(1, n + 1) for j in range(1, i + 1)}
    )


def seeded_supports(seed, count, max_row, max_rows):
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.sample(range(1, max_row + 1), rng.randint(1, max_rows))
        cells = {}
        for i in rows:
            for j in rng.sample(range(1, i + 1), rng.randint(1, min(i, 3))):
                cells[(i, j)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 8))
        yield TriVector(cells)


def test_hull_program_is_the_dense_cover_matrix(lp_programs):
    # on two or more rows hull_min_scale hands solve_lp one unit-cost
    # column per pruned tuple, equal to the dense conversion of the 0/1
    # matrix, and |x| on the record cells as the rhs
    vectors = [family(n) for n in range(2, 7) for family in (ones, decr)]
    vectors += [x for x in seeded_supports(20261021, 40, 6, 4) if len(x.active_rows()) > 1]
    for x in vectors:
        lp_programs.clear()
        hull_min_scale(x)
        [(columns, rhs)] = lp_programs
        tuples, mat, want_rhs = dense_cover_program(x)
        assert columns == dense_columns([1] * len(tuples), mat)
        assert rhs == want_rhs


def dense_hull_reference(x):
    """What hull_min_scale returns when its program is solved as a dense
    matrix by ``solve_dense``."""
    tuples, mat, rhs = dense_cover_program(x)
    res = solve_dense([1] * len(tuples), mat, rhs)
    assert res.status == "optimal"
    lam = res.objective
    picked = [(t, w) for t, w in zip(tuples, res.x) if w]
    seqs = tuple(GridSeq.from_counts(t) for t, _ in picked)
    return lam, HullCertificate(seqs, tuple(w / lam for _, w in picked), lam)


def assert_one_row_hull_is_the_dense_optimum(x, programs):
    programs.clear()
    got = hull_min_scale(x)
    assert programs == []
    assert got == dense_hull_reference(x)
    # the pruning loses nothing against every generator on the row
    assert got[0] == full_enumeration_min_scale(x)
    got[1].validate(x)


def test_one_row_hull_needs_no_lp(lp_programs):
    for x in [ones(1), decr(1), *seeded_supports(20261022, 40, 12, 1)]:
        assert_one_row_hull_is_the_dense_optimum(x, lp_programs)


@st.composite
def one_row_vectors(draw):
    i = draw(st.integers(1, 12))
    columns = draw(st.sets(st.integers(1, i), min_size=1))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=8).filter(bool)
    return TriVector({(i, j): draw(value) for j in columns})


# the fixture's record is cleared before each example
@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(one_row_vectors())
def test_one_row_hull_matches_dense_program(lp_programs, x):
    assert_one_row_hull_is_the_dense_optimum(x, lp_programs)


# (2i - j)/(2i) on rows 1..11 falls strictly along each row, so every
# cell is a record column and the walk passes the guard
DENSE_11 = TriVector(
    {(i, j): Fraction(2 * i - j, 2 * i) for i in range(1, 12) for j in range(1, i + 1)}
)


def test_min_scale_candidate_guard():
    with pytest.raises(EnumerationBudgetError):
        hull_min_scale(DENSE_11)


def _raises_budget(call):
    def run():
        with pytest.raises(EnumerationBudgetError):
            call()

    return run


@pytest.mark.parametrize(
    "call",
    [
        lambda: hull_min_scale(TriVector({(2, 1): 1, (3, 2): Fraction(1, 2), (3, 3): 1})),
        lambda: _enumerate_cached.__wrapped__((2, 4, 5)),
        _raises_budget(lambda: hull_min_scale(DENSE_11)),
        _raises_budget(lambda: _enumerate_cached.__wrapped__(tuple(range(30, 40)))),
    ],
    ids=["hull", "enumerate", "hull-budget", "enumerate-budget"],
)
def test_walks_leave_no_reference_cycle(call):
    # the recursive walk closures refer to themselves; each search must
    # drop that cycle itself, also when it ends in EnumerationBudgetError
    debug = gc.get_debug()
    gc.collect()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        walks = [obj for obj in gc.garbage if getattr(obj, "__name__", None) == "walk"]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert walks == []


@pytest.mark.parametrize("rows, scale", [(6, Fraction(21, 5)), (7, Fraction(26, 5))])
def test_dense_min_scale_pinned(rows, scale):
    # every cell of rows 1..n at (1 + i*j mod 5)/5; 49 and 179 maximal columns
    x = TriVector(
        {(i, j): Fraction(1 + i * j % 5, 5) for i in range(1, rows + 1) for j in range(1, i + 1)}
    )
    lam, cert = hull_min_scale(x)
    assert lam == scale
    assert cert.scale == scale
    cert.validate(x)


@st.composite
def certificates_and_targets(draw):
    """A hull certificate and a vector at, just above or below its combination."""
    seqs = draw(st.lists(st.sampled_from(enumerate_grid_seqs(4)), max_size=4))
    raw = draw(st.lists(st.integers(0, 5), min_size=len(seqs), max_size=len(seqs)))
    total = draw(st.integers(max(sum(raw), 1), max(sum(raw), 1) + 2))
    scale = draw(st.fractions(min_value=0, max_value=3, max_denominator=5).filter(bool))
    cert = HullCertificate(tuple(seqs), tuple(Fraction(w, total) for w in raw), scale)
    comb = cert.combination()
    cells = st.one_of(st.sampled_from(comb.support()), tri_index4) if comb else tri_index4
    entries = {}
    for cell in draw(st.lists(cells, max_size=6)):
        nudge = draw(st.sampled_from((Fraction(-1, 97), Fraction(0), Fraction(1, 97))))
        sign = draw(st.sampled_from((1, -1)))
        entries[cell] = sign * (comb.entry(*cell) + nudge)
    return cert, TriVector(entries)


@settings(max_examples=200, deadline=None)
@given(certificates_and_targets())
def test_validate_matches_combination_domination(pair):
    cert, x = pair
    try:
        cert.validate(x)
        accepted = True
    except AssertionError:
        accepted = False
    assert accepted == dominates(cert.combination(), abs(x))


def test_validate_rejects_malformed_certificates():
    row = GridSeq((0, 2))
    x = row.indicator()
    HullCertificate((row, row), (Fraction(1, 3), Fraction(2, 3)), Fraction(1)).validate(x)
    bad = [
        ((row, row), (Fraction(1, 3), Fraction(3, 4)), Fraction(1), "weights exceed 1"),
        ((row, row), (Fraction(-1, 3), Fraction(4, 3)), Fraction(1), "negative weight"),
        ((row,), (Fraction(1),), Fraction(-1), "negative scale"),
        ((row, row), (Fraction(1),), Fraction(1), "length mismatch"),
    ]
    for seqs, weights, scale, message in bad:
        with pytest.raises(AssertionError, match=message):
            HullCertificate(seqs, weights, scale).validate(x)


def test_average_and_degree():
    fam = [GridSeq((1,)), GridSeq((0, 2)), GridSeq((0, 1))]
    avg = average_indicators(fam)
    assert avg.entry(2, 1) == Fraction(2, 3)
    assert avg.entry(1, 1) == Fraction(1, 3)
    assert disjointness_degree(fam) == 2
    assert disjointness_degree([]) == 0
    assert disjointness_degree([ZERO_SEQ]) == 0
    # degree / M equals the sup norm of the average
    assert Fraction(disjointness_degree(fam), len(fam)) == avg.sup_norm()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(enumerate_grid_seqs(4)), min_size=1, max_size=6))
def test_degree_equals_scaled_sup(fam):
    avg = average_indicators(fam)
    assert Fraction(disjointness_degree(fam), len(fam)) == avg.sup_norm()


def repeated_sum(seqs, divisor):
    """(1/divisor) sum indicator(seq) by repeated TriVector addition."""
    total = TriVector()
    for s in seqs:
        total = total + s.indicator()
    return total.scale(Fraction(1, divisor))


families = st.lists(st.sampled_from(enumerate_grid_seqs(5)), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(families)
def test_average_indicators_matches_repeated_sum(fam):
    avg = average_indicators(fam)
    assert avg == repeated_sum(fam, len(fam))
    assert hash(avg) == hash(repeated_sum(fam, len(fam)))


@settings(max_examples=60, deadline=None)
@given(st.lists(families, min_size=1, max_size=3), st.integers(1, 40))
def test_block_vector_matches_repeated_sum(blocks, m_count):
    cert = DecompositionCertificate(
        Fraction(1, 2),
        DEFAULT_P,
        m_count,
        0,
        Fraction(1, 2),
        (),
        (),
        tuple(DecompositionBlock(tuple(fam), 0, len(fam), Fraction(0)) for fam in blocks),
        Fraction(1),
    )
    for m, fam in enumerate(blocks):
        assert cert.block_vector(m) == repeated_sum(fam, m_count)
