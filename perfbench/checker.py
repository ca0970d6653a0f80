"""Independent re-check of trigauge certificates from their raw fields.

Nothing here calls a ``validate`` method, ``is_unit_member``,
``combination``, ``element`` or any arithmetic helper of the program:
every claim is re-derived from the stored sequences, weights, scales,
pieces and functionals with plain ``Fraction`` and integer arithmetic.
The program's own ``validate`` trusts stored fields (a stored seminorm,
a witness ceiling), so a forged certificate can pass it; this checker
recomputes those fields instead.

The one claim the checker cannot settle exactly is the size of an
irrational ceiling.  ``check_lower`` returns the ceiling of every
seminorm or pairing witness so the caller can compare it with an
independent value of C(p) (see ``reference.py``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

Cell = tuple[int, int]


class CertificateError(AssertionError):
    """A certificate whose claim does not follow from its raw fields."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CertificateError(message)


def entries(x) -> dict[Cell, Fraction]:
    """Cell -> value map of a TriVector, read through its public items()."""
    return {cell: Fraction(v) for cell, v in x.items()}


def seq_counts(seq) -> tuple[int, ...]:
    """Counts of a generator sequence after re-checking that it is one.

    Row i holds 0 <= m_i <= i cells and sum (m_i / i)^2 <= 1.
    """
    counts = tuple(seq.m)
    for i, c in enumerate(counts, start=1):
        require(isinstance(c, int) and 0 <= c <= i, f"count {c!r} invalid on row {i}")
    budget = sum((Fraction(c, i) ** 2 for i, c in enumerate(counts, start=1)), Fraction(0))
    require(budget <= 1, f"generator budget {budget} exceeds 1")
    return counts


def seminorm_sq(cells: Mapping[Cell, Fraction]) -> Fraction:
    """Square of the row-average seminorm: sum over rows of (|row| sum / i)^2."""
    rows: dict[int, Fraction] = {}
    for (i, _), v in cells.items():
        rows[i] = rows.get(i, Fraction(0)) + abs(v)
    return sum(((s / i) ** 2 for i, s in rows.items()), Fraction(0))


def weak_lorentz_le(values_sq: Iterable[Fraction], bound_sq: Fraction, num: int, den: int) -> bool:
    """Integer power test for sup_n a*_n n^(den/num) <= c, given a*_n^2 and c^2.

    With a*_n^2 = u/v and c^2 = B/D in lowest terms the condition at rank n
    is (u/v)^num * n^(2 den) <= (B/D)^num, i.e. the integer inequality
    u^num * n^(2 den) * D^num <= B^num * v^num.
    """
    bound = Fraction(bound_sq)
    require(bound >= 0, "negative squared bound")
    big, small = bound.numerator ** num, bound.denominator ** num
    squares = sorted((Fraction(v) for v in values_sq), reverse=True)
    for n, v in enumerate(squares, start=1):
        require(v >= 0, "negative square")
        if v == 0:
            break
        if v.numerator ** num * n ** (2 * den) * small > big * v.denominator ** num:
            return False
    return True


def check_hull(piece: Mapping[Cell, Fraction], cert) -> Fraction:
    """|piece| <= scale * sum_q w_q indicator(seq_q), with w >= 0, sum w <= 1.

    Coverage of cell (i, j) is scale * (sum of w_q over the q whose row-i
    count reaches j).  Returns the certified scale.
    """
    counts = [seq_counts(s) for s in cert.seqs]
    weights = [Fraction(w) for w in cert.weights]
    scale = Fraction(cert.scale)
    require(len(counts) == len(weights), "hull certificate: one weight per sequence")
    require(all(w >= 0 for w in weights), "hull certificate: negative weight")
    require(sum(weights, Fraction(0)) <= 1, "hull certificate: weights exceed 1")
    require(scale >= 0, "hull certificate: negative scale")
    for (i, j), v in piece.items():
        reach = sum((w for m, w in zip(counts, weights) if len(m) >= i and m[i - 1] >= j), Fraction(0))
        require(scale * reach >= abs(v), f"hull certificate does not cover cell ({i}, {j})")
    return scale


def check_unit_member(rep, p) -> dict[Cell, Fraction]:
    """Re-derive that a DisjointRep is a unit member; returns its element.

    Pieces must sit on pairwise disjoint rows, each inside 1 * U by its
    hull certificate, and the recomputed piece seminorms must pass the
    weak-Lorentz test against 1.  Stored seminorms must equal the
    recomputed ones.
    """
    pieces = [entries(pc) for pc in rep.pieces]
    certs = tuple(rep.certs)
    require(len(certs) == len(pieces), "representative: one hull certificate per piece")
    seen: set[int] = set()
    for piece in pieces:
        rows = {i for i, _ in piece}
        require(not rows & seen, "representative: pieces share a row")
        seen |= rows
    for piece, cert in zip(pieces, certs):
        require(check_hull(piece, cert) <= 1, "representative: piece hull scale above 1")
    norms = [seminorm_sq(piece) for piece in pieces]
    require(
        tuple(Fraction(v) for v in rep.norms_sq) == tuple(norms),
        "representative: stored seminorms differ from the pieces",
    )
    require(weak_lorentz_le(norms, Fraction(1), p.num, p.den), "representative: seminorms break the Lorentz bound")
    element: dict[Cell, Fraction] = {}
    for piece in pieces:
        for cell, v in piece.items():
            element[cell] = element.get(cell, Fraction(0)) + v
    return element


def check_upper(x, cert, p) -> Fraction:
    """|x| <= scale * sum_l w_l element_l over re-checked unit members."""
    target = entries(x)
    weights = [Fraction(w) for w in cert.weights]
    scale = Fraction(cert.scale)
    require(len(weights) == len(cert.reps), "upper certificate: one weight per representative")
    require(all(w > 0 for w in weights), "upper certificate: weights must be positive")
    require(sum(weights, Fraction(0)) <= 1, "upper certificate: weights exceed 1")
    require(scale >= 0, "upper certificate: negative scale")
    total: dict[Cell, Fraction] = {}
    for w, rep in zip(weights, cert.reps):
        for cell, v in check_unit_member(rep, p).items():
            total[cell] = total.get(cell, Fraction(0)) + w * scale * v
    for cell, v in target.items():
        require(total.get(cell, Fraction(0)) >= abs(v), f"upper certificate does not cover cell {cell}")
    return scale


def check_lower(x, witness, members: Iterable[Mapping[Cell, Fraction]] = ()) -> tuple[str, Fraction]:
    """Re-derive that the witness functional reaches value * ceiling at x.

    ``members`` are unit members (element maps, already re-checked) that a
    dual functional's ceiling must dominate; a ceiling below any of them
    is refuted.  Returns (kind, ceiling); for the kinds 'seminorm' and
    'pairing' the caller still has to check ceiling >= C(p).
    """
    cells = entries(x)
    value, ceiling = Fraction(witness.value), Fraction(witness.ceiling)
    require(value >= 0 and ceiling > 0, "lower witness: value or ceiling out of range")
    kind, detail = witness.kind, witness.detail
    reach = value * ceiling
    if kind == "sup":
        i, j = detail
        require(ceiling == 1, "coordinate witness ceiling must be 1")
        require(abs(cells.get((i, j), Fraction(0))) >= reach, "coordinate witness overstates")
    elif kind == "seminorm":
        require(reach**2 <= seminorm_sq(cells), "seminorm witness overstates")
    elif kind == "pairing":
        b = [Fraction(v) for v in detail]
        require(sum((v * v for v in b), Fraction(0)) == 1, "pairing direction is not a unit vector")
        rows: dict[int, Fraction] = {}
        for (i, _), v in cells.items():
            rows[i] = rows.get(i, Fraction(0)) + v
        paired = sum((c * rows.get(i, Fraction(0)) / i for i, c in enumerate(b, start=1)), Fraction(0))
        require(abs(paired) >= reach, "pairing witness overstates")
    elif kind == "dual":
        dual_cells, weights = detail
        y = [(tuple(c), Fraction(w)) for c, w in zip(dual_cells, weights)]
        require(len(dual_cells) == len(weights), "dual witness: one weight per cell")
        require(all(w >= 0 for _, w in y), "dual witness: negative weight")
        paired = sum((w * abs(cells.get(c, Fraction(0))) for c, w in y), Fraction(0))
        require(paired >= reach, "dual witness overstates")
        for member in members:
            load = sum((w * member.get(c, Fraction(0)) for c, w in y), Fraction(0))
            require(load <= ceiling, "dual witness ceiling is below a unit member")
    else:
        raise CertificateError(f"unknown witness kind {kind!r}")
    return kind, ceiling


# -- generators, enumerated apart from the program ---------------------------


def _walk(rows: tuple[int, ...], budget: Fraction) -> Iterator[tuple[int, ...]]:
    if not rows:
        yield ()
        return
    i, rest = rows[0], rows[1:]
    for m in range(i + 1):
        cost = Fraction(m * m, i * i)
        if cost > budget:
            break
        for tail in _walk(rest, budget - cost):
            yield (m,) + tail


@lru_cache(maxsize=None)
def generators(rows: tuple[int, ...]) -> tuple[dict[int, int], ...]:
    """Every nonzero row-count map on the given rows with sum (m_i/i)^2 <= 1."""
    out = []
    for counts in _walk(rows, Fraction(1)):
        if any(counts):
            out.append(dict(zip(rows, counts)))
    return tuple(out)


def generator_members(rows: tuple[int, ...]) -> list[dict[Cell, Fraction]]:
    """Indicator of each generator: a unit member of the body."""
    return [
        {(i, j): Fraction(1) for i, m in gen.items() for j in range(1, m + 1)}
        for gen in generators(rows)
    ]
