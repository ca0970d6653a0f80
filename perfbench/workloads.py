"""The three workloads: their seeded inputs, the timed call, and the checks.

Every workload runs in rounds.  A round is the same list of operations
every time (the same suites, the same vector classes, the same support
families); only the seeded values change from round to round.  The
timed part of an operation is the program call alone: input generation
and every check run outside it.

sweep  -- the ten acceptance suites through ``run_suite`` at trial counts
          1/25 of ``DEFAULT_TRIALS`` (merge: 2), each report rendered as
          JSON and CSV.  One operation is one suite.
gauge  -- ``gauge_interval`` (the work of ``trigauge tau-bounds`` past
          row 3) on vectors with 3-4, 5 and 6 active rows.
micro  -- ``tau_micro_oracle`` at its default tolerance on supports in
          rows 1..3: a fixed list (three unit indicators and the first
          uniformly random supports of a fixed stream) plus seeded
          sandwich-family shapes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from math import floor
from typing import Any

import checker

Cell = tuple[int, int]

# Trial counts: DEFAULT_TRIALS / 25 at the time the benchmark was written,
# fixed here so a change to the program's defaults does not change the work.
SWEEP_TRIALS = {
    "select": 40,
    "partition": 20,
    "kdisjoint": 40,
    "smallsup": 20,
    "blocks": 20,
    "mainlemma": 4,
    "quotient": 40,
    "sandwich": 8,
    "split": 4,
    "merge": 2,
}
SELECT_EXHAUSTIVE = 33  # run_select appends 3 brute-force records per length 2..12

# Gauge rounds: two small vectors (3-4 rows of 1..6, reaching past row 3),
# one vector on each of the six 5-row subsets of 1..6, and three on rows
# 1..6.  Covering every 5-row subset each round keeps the row sets, whose
# costs differ by half, from adding to the run-to-run spread.
GAUGE_ROWS = 6
GAUGE_SMALL = 2
GAUGE_WIDE = 3

MICRO_CELLS = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
MICRO_RANDOM_SEED = 19920301  # the fixed stream of uniformly random supports
MICRO_RANDOM_COUNT = 40
MICRO_SHAPES = 30  # seeded sandwich-family shapes per round

# Shape constants of the sandwich families (rank budgets and the two-row
# band); the same values the acceptance suite draws from.
SAFE_RANK2 = (Fraction(1, 2), Fraction(3, 5), Fraction(5, 8))
SAFE_RANK3 = (Fraction(1, 4), Fraction(2, 5), Fraction(12, 25))
BAND_RATIOS = tuple(Fraction(a, b) for a, b in ((2, 3), (3, 4), (5, 6), (1, 1), (7, 6), (5, 4), (10, 7)))


def derive(*parts: Any) -> int:
    """64-bit seed from the parts, stable across processes and platforms."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Deferred:
    """Facts the reference libraries settle after the timed rounds."""

    def __init__(self) -> None:
        self.ceilings: set[Fraction] = set()  # seminorm/pairing ceilings: >= C(p)
        self.pairings: list[Fraction] = []  # |<body element, unit b>|: <= C(p)
        self.unit_lows: list[Fraction] = []  # unit indicators: lo >= 1/C(p) - 1e-3
        self.covers: list[tuple[dict[Cell, Fraction], Fraction]] = []  # hi <= HiGHS optimum


def _check_interval(api, x, interval, deferred: Deferred, members=()) -> None:
    """Both certificates re-derived; lo >= max |x_ij|; lo <= hi."""
    p = api.DEFAULT_P
    hi = checker.check_upper(x, interval.upper, p)
    kind, ceiling = checker.check_lower(x, interval.lower, members)
    if kind in ("seminorm", "pairing"):
        deferred.ceilings.add(ceiling)
    lo = Fraction(interval.lower.value)
    checker.require(hi == interval.hi and lo == interval.lo, "interval does not match its certificates")
    sup = max((abs(v) for v in checker.entries(x).values()), default=Fraction(0))
    checker.require(lo >= sup, "lower bound below max |x_ij|")
    checker.require(lo <= hi, "crossed interval")


# -- sweep --------------------------------------------------------------------


def _f(value: Any) -> Fraction:
    return Fraction(str(value))


def _record_holds(suite: str, d: dict, deferred: Deferred) -> bool:
    """Each suite's stated inequality, re-checked from the record detail."""
    if suite == "select":
        ok = Fraction(1, 2) <= _f(d["sum"]) <= 1 and 1 <= d["chosen"] <= d["length"]
        return ok and (d.get("phase") != "exhaustive" or d["brute_feasible"] is True)
    if suite == "partition":
        mass = _f(d["mass"])
        return d["parts"] <= 2 * mass + d["deepest"] and (mass == 0 or d["reductions"] < 2 * mass)
    if suite == "kdisjoint":
        return d["bound"] == d["k"] * d["n"] and _f(d["sum_norm_sq"]) <= d["bound"]
    if suite == "smallsup":
        eps = _f(d["epsilon"])
        return d["degree"] <= floor(eps * d["m"]) and _f(d["sup"]) <= eps and _f(d["rho_sq"]) <= eps
    if suite == "blocks":
        return d["conditions"] is True and d["within_4"] is True
    if suite == "mainlemma":
        return _f(d["scale"]) ** 4 <= 625 * _f(d["epsilon"])
    if suite == "quotient":
        deferred.pairings.append(abs(_f(d["z_pair"])))
        return _f(d["pairing"]) >= Fraction(2, 9) and d["floor_ok"] is True and d["cap_ok"] is True
    if suite == "sandwich":
        ok = d["cheap_lo"] <= d["lo"] <= d["hi"] <= d["cheap_hi"] and d["width"] <= 1e-3
        if d["unit_case"]:
            deferred.unit_lows.append(Fraction(d["lo"]))
            ok = ok and d["hi"] <= 1
        return ok
    if suite == "split":
        return _f(d["gauge_bound"]) ** 8 <= 5**8 * _f(d["epsilon"])
    if suite == "merge":
        return d["kept"] == d["family"] == 50 and d["prefixes_ok"] is True
    raise KeyError(suite)


class Sweep:
    name = "sweep"

    def __init__(self, api, seed: int) -> None:
        self.api, self.seed = api, seed

    def round_ops(self, r: int) -> list[tuple[str, Any]]:
        sweep_seed = derive("sweep", self.seed, r)
        return [(suite, (suite, sweep_seed, n)) for suite, n in SWEEP_TRIALS.items()]

    def call(self, payload, tracer):
        suite, sweep_seed, trials = payload
        cfg = self.api.SweepConfig(suite=suite, seed=sweep_seed, trials=trials)
        span = tracer.begin(f"sweeps.{suite}") if tracer else None
        report = self.api.sweeps.run_suite(cfg)
        if tracer:
            tracer.end(span)
            span = tracer.begin("report.render")
        text_json, text_csv = report.to_json(), report.to_csv()
        if tracer:
            tracer.end(span, bytes=len(text_json.encode()) + len(text_csv.encode()))
        return text_json, text_csv

    def check(self, payload, outcome, deferred: Deferred) -> bool:
        suite, sweep_seed, trials = payload
        text_json, text_csv = outcome
        data = json.loads(text_json)
        expected = trials + (SELECT_EXHAUSTIVE if suite == "select" else 0)
        cfg, agg, records = data["config"], data["aggregate"], data["records"]
        checker.require((cfg["suite"], cfg["seed"], cfg["trials"]) == (suite, sweep_seed, trials), f"{suite}: config echo")
        checker.require(agg["pass"] is True and agg["failures"] == 0 and not data["failures"], f"{suite}: report failed")
        checker.require(agg["trials"] == len(records) == expected, f"{suite}: {len(records)} records, expected {expected}")
        for rec in records:
            detail = rec["detail"]
            canon = json.dumps(detail, sort_keys=True, indent=2) + "\n"
            checker.require(rec["digest"] == hashlib.sha256(canon.encode()).hexdigest(), f"{suite}: record digest")
            checker.require(rec["ok"] is True and _record_holds(suite, detail, deferred), f"{suite}: trial {rec['trial']}")
        rows = list(csv.reader(io.StringIO(text_csv)))
        checker.require(len(rows) == expected + 2, f"{suite}: csv row count")
        checker.require([row[2] for row in rows[1:-1]] == [rec["digest"] for rec in records], f"{suite}: csv digests")
        checker.require(rows[-1][:2] == ["aggregate", "pass"], f"{suite}: csv aggregate")
        return False


# -- gauge ----------------------------------------------------------------------


def gauge_rows(rng: random.Random) -> list[tuple[str, tuple[int, ...]]]:
    """(class, active rows) of every vector in one gauge round."""
    out = []
    for _ in range(GAUGE_SMALL):
        rows = (1,)
        while rows[-1] <= 3:
            rows = tuple(sorted(rng.sample(range(1, GAUGE_ROWS + 1), rng.choice((3, 4)))))
        out.append(("small", rows))
    out += [("partition", rows) for rows in itertools.combinations(range(1, GAUGE_ROWS + 1), 5)]
    out += [("wide", tuple(range(1, GAUGE_ROWS + 1)))] * GAUGE_WIDE
    return out


def gauge_vector(rng: random.Random, rows: tuple[int, ...]) -> dict[Cell, Fraction]:
    """Two cells per row (one on row 1) with values in {1/8, ..., 1}."""
    cells = {}
    for i in rows:
        for j in rng.sample(range(1, i + 1), min(i, 2)):
            cells[(i, j)] = Fraction(rng.randint(1, 8), 8)
    return cells


class Gauge:
    name = "gauge"

    def __init__(self, api, seed: int) -> None:
        self.api, self.seed = api, seed

    def round_ops(self, r: int) -> list[tuple[str, Any]]:
        rng = random.Random(derive("gauge", self.seed, r))
        return [(label, self.api.TriVector(gauge_vector(rng, rows))) for label, rows in gauge_rows(rng)]

    def call(self, x, tracer):
        return self.api.gauge.gauge_interval(x, self.api.DEFAULT_P)

    def check(self, x, interval, deferred: Deferred) -> bool:
        _check_interval(self.api, x, interval, deferred)
        deferred.covers.append((checker.entries(x), Fraction(interval.hi)))
        return False


# -- micro --------------------------------------------------------------------------


def uniform_support(rng: random.Random) -> dict[Cell, Fraction]:
    """Each cell of rows 1..3 present with probability 1/2, value +-k/8, k in 1..16."""
    while True:
        cells = {
            c: Fraction(rng.randint(1, 16), 8) * (-1 if rng.random() < 0.3 else 1)
            for c in MICRO_CELLS
            if rng.random() < 0.5
        }
        if cells:
            return cells


def _single_row(rng: random.Random, i: int) -> dict[Cell, Fraction]:
    return {(i, j): Fraction(1) for j in range(1, rng.randint(1, i) + 1)}


def _full_row(i: int) -> dict[Cell, Fraction]:
    return {(i, j): Fraction(1) for j in range(1, i + 1)}


def _scaled(cells: dict[Cell, Fraction], c: Fraction) -> dict[Cell, Fraction]:
    return {k: v * c for k, v in cells.items()}


def _flipped(rng: random.Random, cells: dict[Cell, Fraction]) -> dict[Cell, Fraction]:
    return {k: -v if rng.random() < 0.3 else v for k, v in sorted(cells.items())}


def sandwich_shape(rng: random.Random) -> tuple[str, dict[Cell, Fraction]]:
    """One of the five sandwich families: single rows, scaled indicators,
    dominated row-disjoint sums, paired full rows inside the two-row band,
    and unit indicators (weights 25/25/20/15/15)."""
    kind = rng.choices(range(5), weights=(25, 25, 20, 15, 15))[0]
    if kind == 0:
        i = rng.randint(1, 3)
        js = rng.sample(range(1, i + 1), rng.randint(1, i))
        return "row", {(i, j): Fraction(rng.randint(-16, 16), 8) for j in js}
    if kind == 1:
        i = rng.randint(1, 3)
        scale = Fraction(rng.randint(1, 16), 8)
        return "indicator", _flipped(rng, _scaled(_single_row(rng, i), scale))
    if kind == 2:
        rows = sorted(rng.sample((1, 2, 3), rng.randint(2, 3)))
        top = Fraction(rng.randint(1, 16), 8)
        ratios = (Fraction(1), rng.choice(SAFE_RANK2), rng.choice(SAFE_RANK3))
        cells: dict[Cell, Fraction] = {}
        for rank, i in enumerate(rng.sample(rows, len(rows)), start=1):
            cells.update(_scaled(_single_row(rng, i), top * ratios[rank - 1]))
        return "disjoint", _flipped(rng, cells)
    if kind == 3:
        lo, hi = sorted(rng.sample((1, 2, 3), 2))
        a = Fraction(rng.randint(1, 12), 8)
        b = a * rng.choice(BAND_RATIOS)
        return "band", {**_scaled(_full_row(lo), a), **_scaled(_full_row(hi), b)}
    return "unit", _full_row(rng.randint(1, 3))


def fixed_supports() -> list[tuple[str, dict[Cell, Fraction]]]:
    """Seed-independent part of every micro round."""
    rng = random.Random(MICRO_RANDOM_SEED)
    out = [("unit", _full_row(i)) for i in (1, 2, 3)]
    out += [("uniform", uniform_support(rng)) for _ in range(MICRO_RANDOM_COUNT)]
    return out


class Micro:
    name = "micro"

    def __init__(self, api, seed: int) -> None:
        self.api, self.seed = api, seed
        self.fixed = fixed_supports()
        # unit members every dual ceiling must dominate
        self.members = checker.generator_members((1, 2, 3))

    def round_ops(self, r: int) -> list[tuple[str, Any]]:
        rng = random.Random(derive("micro", self.seed, r))
        items = self.fixed + [sandwich_shape(rng) for _ in range(MICRO_SHAPES)]
        return [(label, self.api.TriVector(cells)) for label, cells in items]

    def call(self, x, tracer):
        try:
            return self.api.micro.tau_micro_oracle(x, self.api.DEFAULT_P)
        except self.api.ToleranceUnreachableError as err:
            return err

    def interval(self, outcome):
        return outcome.interval if isinstance(outcome, self.api.ToleranceUnreachableError) else outcome

    def check(self, x, outcome, deferred: Deferred) -> bool:
        """Certificates, containment in the cheap interval, width; returns
        whether the operation failed (the tolerance was not reached)."""
        api = self.api
        failed = isinstance(outcome, api.ToleranceUnreachableError)
        refined = self.interval(outcome)
        reps = [checker.check_unit_member(rep, api.DEFAULT_P) for rep in refined.upper.reps]
        _check_interval(api, x, refined, deferred, members=self.members + reps)
        cheap = api.gauge.gauge_interval(x, api.DEFAULT_P)
        checker.require(cheap.lo <= refined.lo <= refined.hi <= cheap.hi, "refined interval leaves the cheap one")
        width = refined.hi - refined.lo
        checker.require((width > api.micro.DEFAULT_TOL) == failed, "width disagrees with the outcome")
        cells = checker.entries(x)
        rows = {i for i, _ in cells}
        if len(rows) == 1 and cells == _full_row(rows.pop()):
            deferred.unit_lows.append(Fraction(refined.lo))
            checker.require(refined.hi <= 1, "unit indicator above 1")
        return failed

    def check_homogeneity(self, x, outcome) -> None:
        """The enclosure of 2x overlaps twice the enclosure of x."""
        once = self.interval(outcome)
        twice = self.interval(self.call(x.scale(2), None))
        checker.require(twice.lo <= 2 * once.hi and 2 * once.lo <= twice.hi, "homogeneity: 2x and x disagree")


WORKLOADS = {"sweep": Sweep, "gauge": Gauge, "micro": Micro}
