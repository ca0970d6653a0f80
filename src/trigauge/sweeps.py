"""Seeded property sweeps, one per acceptance target.

Each suite draws its instances from a per-trial generator seeded by
(suite, seed, trial), so any single trial can be regenerated without
running the others.  A trial draws its instance before anything checks
it and returns it with a thunk that renders it as text, which runs only
when the trial fails.  No check mutates what its thunk renders, so a
trial whose check throws still records the instance it drew; it becomes
a failure transcript instead of aborting the sweep, and the report then
fails as a whole.

A suite is its list of trials and its summary statistics (``Suite``);
``run_suite`` runs the trials and assembles the report.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import ceil
from typing import Callable, Iterable, NamedTuple

from . import instances as inst
from .core import (
    _weighted_sum,
    l2_norm_sq,
    lorentz_l2_constant,
    lorentz_le_sq,
    row_norm_sq,
    row_pairing,
)
from .decompose import (
    MergeResult,
    block_conditions_sq,
    decompose_average,
    merge_representatives,
    partition_matrix,
    select_subset,
    split_element,
)
from .gauge import gauge_interval, pairing_witness
from .generators import average_indicators, disjointness_degree, seq_file_text
from .micro import tau_micro_oracle
from .report import Report, SweepConfig, jsonable, make_record

Check = Callable[[], tuple[bool, dict]]
# draws one instance; returns a thunk rendering it as text and the check
TrialFn = Callable[[random.Random, int, SweepConfig], tuple[Callable[[], str], Check]]
# (rng label, trial function, failure text when the property fails)
Trial = tuple[int | str, TrialFn, str]
PROPERTY_VIOLATED = "property violated"

EPS_SMALL = (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64))
EPS_MAIN = (Fraction(1, 4), Fraction(1, 16))


def trial_rng(suite: str, seed: int, trial: int | str) -> random.Random:
    digest = hashlib.sha256(f"{suite}:{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _execute(cfg: SweepConfig, trials: Iterable[Trial]) -> tuple[list, list, list]:
    """Run the trials in order; trial t draws from the rng of its label."""
    records, failures, details = [], [], []
    for t, (label, trial_fn, error) in enumerate(trials):
        rng = trial_rng(cfg.suite, cfg.seed, label)
        render = None
        try:
            render, check = trial_fn(rng, t, cfg)
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, {"error": repr(exc)}
        records.append(make_record(t, ok, detail))
        details.append(detail)
        if not ok:
            failures.append(
                {
                    "trial": t,
                    "error": detail.get("error", error),
                    "detail": jsonable(detail),
                    "instance": None if render is None else render(),
                }
            )
    return records, failures, details


def _random_trials(trial_fn: TrialFn) -> Callable[[SweepConfig], list[Trial]]:
    """cfg.trials seeded draws of one trial function, labelled 0, 1, ..."""
    return lambda cfg: [(t, trial_fn, PROPERTY_VIOLATED) for t in range(cfg.trials)]


def _eps_for(cfg: SweepConfig, trial: int, cycle: tuple[Fraction, ...]) -> Fraction:
    return cfg.epsilon if cfg.epsilon is not None else cycle[trial % len(cycle)]


def _require_generator_cap(cfg: SweepConfig, cycle: tuple[Fraction, ...]) -> None:
    for eps in (cfg.epsilon,) if cfg.epsilon is not None else cycle:
        if ceil(1 / eps) > cfg.max_m:
            raise ValueError(f"max_m={cfg.max_m} cannot host epsilon={eps} families")


# -- subset selection ----------------------------------------------------------


def _select_check(values: list[Fraction]) -> tuple[bool, dict]:
    idx = select_subset(values)
    total = sum((values[i] for i in idx), Fraction(0))
    ok = Fraction(1, 2) <= total <= 1 and len(set(idx)) == len(idx)
    return ok, {"length": len(values), "chosen": len(idx), "sum": total}


def _brute_feasible(values: list[Fraction]) -> bool:
    for mask in range(1, 1 << len(values)):
        total = Fraction(0)
        for i in range(len(values)):
            if mask >> i & 1:
                total += values[i]
                if total > 1:
                    break
        if Fraction(1, 2) <= total <= 1:
            return True
    return False


def _select_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    values = inst.subset_values(rng)
    return lambda: " ".join(str(v) for v in values), lambda: _select_check(values)


def _exhaustive_trial(length: int) -> TrialFn:
    """Cross-check one short draw against brute force."""

    def trial(rng: random.Random, trial_idx: int, cfg: SweepConfig):
        values = inst.subset_values(rng, length=length)

        def check():
            ok, detail = _select_check(values)
            feasible = _brute_feasible(values)
            detail.update({"phase": "exhaustive", "brute_feasible": feasible})
            return ok and feasible, detail

        return lambda: " ".join(str(v) for v in values), check

    return trial


def _select_trials(cfg: SweepConfig) -> list[Trial]:
    # random draws, then an exhaustive cross-check on every short length
    return _random_trials(_select_trial)(cfg) + [
        (f"exhaustive:{length}:{rep}", _exhaustive_trial(length), "exhaustive cross-check failed")
        for length in range(2, 13)
        for rep in range(3)
    ]


def _select_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    sums = [Fraction(d["sum"]) for d in details if "sum" in d]
    return {
        "min_sum": min(sums, default=None),
        "max_sum": max(sums, default=None),
        "exhaustive_checked": len(details) - cfg.trials,
    }


# -- matrix partition ----------------------------------------------------------


def _partition_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    cols = inst.sorted_unit_matrix(rng)

    def check():
        # partition_matrix checks every part and the 2M and 2M + k bounds
        res = partition_matrix(cols)
        return True, {
            "cols": len(cols),
            "deepest": max((len(col) for col in cols), default=0),
            "mass": sum((v for col in cols for v in col), Fraction(0)),
            "parts": len(res.parts),
            "reductions": res.reductions,
        }

    return lambda: "\n".join(" ".join(str(v) for v in col) for col in cols), check


def _partition_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    return {
        "max_parts": max((d.get("parts", 0) for d in details), default=0),
        "max_reductions": max((d.get("reductions", 0) for d in details), default=0),
    }


# -- k-disjoint l2 families ------------------------------------------------------


def _kdisjoint_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    k, vecs = inst.kdisjoint_family(rng)

    def check():
        n = len(vecs)
        coords = len(vecs[0]) if vecs else 0
        ok = True
        counts = [0] * coords
        sums = [Fraction(0)] * coords
        for v in vecs:
            nonzero = [(c, e) for c, e in enumerate(v) if e]
            if l2_norm_sq(e for _, e in nonzero) > 1:
                ok = False
            for c, e in nonzero:
                counts[c] += 1
                sums[c] += e
        norm = l2_norm_sq(e for e in sums if e)
        ok = ok and max(counts, default=0) <= k and norm <= k * n
        return ok, {"k": k, "n": n, "coords": coords, "sum_norm_sq": norm, "bound": k * n}

    return lambda: "\n".join(" ".join(str(e) for e in v) for v in vecs), check


def _kdisjoint_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    ratios = [
        Fraction(d["sum_norm_sq"]) / d["bound"]
        for d in details
        if d.get("bound")
    ]
    return {"max_norm_ratio": max(ratios, default=None)}


# -- seminorm of covered averages -------------------------------------------------


def _smallsup_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    eps = _eps_for(cfg, trial, EPS_SMALL)
    seqs = inst.covered_generators(rng, eps, max_m=cfg.max_m, max_row=cfg.max_row)

    def check():
        avg = average_indicators(seqs)
        degree = disjointness_degree(seqs)
        rho_sq = row_norm_sq(avg)
        ok = (
            degree <= int(eps * len(seqs))
            and avg.sup_norm() <= eps
            and rho_sq <= eps
        )
        return ok, {
            "epsilon": eps,
            "m": len(seqs),
            "degree": degree,
            "sup": avg.sup_norm(),
            "rho_sq": rho_sq,
        }

    return lambda: seq_file_text(seqs), check


def _smallsup_trials(cfg: SweepConfig) -> list[Trial]:
    _require_generator_cap(cfg, EPS_SMALL)
    return _random_trials(_smallsup_trial)(cfg)


def _smallsup_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    margins = [
        Fraction(d["rho_sq"]) / Fraction(d["epsilon"])
        for d in details
        if "rho_sq" in d
    ]
    return {"max_rho_sq_over_eps": max(margins, default=None)}


# -- blocked sequences -------------------------------------------------------------


def _blocks_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    values_sq, breaks = inst.blocked_squares(rng)

    def check():
        passed = block_conditions_sq(values_sq, breaks, cfg.p)
        bounded = lorentz_le_sq(values_sq, 4, cfg.p)
        globally_one = lorentz_le_sq(values_sq, 1, cfg.p)
        return passed and bounded, {
            "length": len(values_sq),
            "blocks": len(breaks) - 1,
            "conditions": passed,
            "within_4": bounded,
            "within_1": globally_one,  # often false; the factor 4 is the content
        }

    def render():
        return " ".join(str(v) for v in values_sq) + "\nbreaks " + " ".join(
            str(b) for b in breaks
        )

    return render, check


def _blocks_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    return {
        "beyond_unit_ball": sum(1 for d in details if d.get("within_1") is False),
    }


# -- full decomposition pipeline ---------------------------------------------------


def _mainlemma_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    eps = _eps_for(cfg, trial, EPS_MAIN)
    seqs = inst.covered_generators(
        rng, eps, max_m=cfg.max_m, max_row=cfg.max_row, max_waves=10
    )

    def check():
        # decompose_average runs the certificate's validate, scale^4 <= 625 eps included
        cert = decompose_average(seqs, eps, cfg.p)
        return True, {
            "epsilon": eps,
            "m": cert.m_count,
            "k": cert.k,
            "blocks": len(cert.blocks),
            "scale": cert.scale,
        }

    return lambda: seq_file_text(seqs), check


def _mainlemma_trials(cfg: SweepConfig) -> list[Trial]:
    _require_generator_cap(cfg, EPS_MAIN)
    return _random_trials(_mainlemma_trial)(cfg)


def _mainlemma_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    margins = [
        Fraction(d["scale"]) ** 4 / (625 * Fraction(d["epsilon"]))
        for d in details
        if "scale" in d
    ]
    return {"max_scale_4th_over_bound": max(margins, default=None)}


# -- quotient pairings -------------------------------------------------------------


def _quotient_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    b = inst.unit_vector(rng)
    v, _, _ = inst.body_element(rng, cfg.p)
    b2 = inst.unit_vector(rng)

    def check():
        witness = pairing_witness(b, cfg.p)  # validated against b by its builder
        floor_ok = witness.pairing >= Fraction(2, 9)
        z = row_pairing(v, b2)
        cap_ok = abs(z) <= lorentz_l2_constant(cfg.p).hi
        return floor_ok and cap_ok, {
            "pairing": witness.pairing,
            "branch": witness.branch,
            "z_pair": z,
            "floor_ok": floor_ok,
            "cap_ok": cap_ok,
        }

    return lambda: "b " + " ".join(str(e) for e in b) + "\n" + v.to_text(), check


def _quotient_failures(cfg: SweepConfig) -> list[dict]:
    width = lorentz_l2_constant(cfg.p).width
    if width <= Fraction(1, 1000):
        return []
    return [
        {
            "trial": "constant",
            "error": "constant enclosure wider than 1/1000",
            "detail": {"width": float(width)},
            "instance": None,
        }
    ]


def _quotient_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    constant = lorentz_l2_constant(cfg.p)
    pairings = [Fraction(d["pairing"]) for d in details if "pairing" in d]
    zs = [abs(Fraction(d["z_pair"])) for d in details if "z_pair" in d]
    return {
        "min_pairing": min(pairings, default=None),
        "max_abs_z_pair": max(zs, default=None),
        "constant_hi": float(constant.hi),
        "constant_width": float(constant.width),
        "constant_width_ok": constant.width <= Fraction(1, 1000),
    }


# -- gauge sandwich ----------------------------------------------------------------


def _sandwich_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    x, is_unit = inst.micro_instance(rng)

    def check():
        cheap = gauge_interval(x, cfg.p)
        refined = tau_micro_oracle(x, cfg.p, tol=cfg.tolerance)
        ok = (
            cheap.lo <= refined.lo <= refined.hi <= cheap.hi
            and refined.hi - refined.lo <= cfg.tolerance
        )
        if is_unit:
            c_hi = lorentz_l2_constant(cfg.p).hi
            ok = ok and refined.lo >= 1 / c_hi - Fraction(1, 1000) and refined.hi <= 1
        return ok, {
            "unit_case": is_unit,
            "lo": float(refined.lo),
            "hi": float(refined.hi),
            "width": float(refined.hi - refined.lo),
            "cheap_lo": float(cheap.lo),
            "cheap_hi": float(cheap.hi),
        }

    return x.to_text, check


def _sandwich_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    return {
        "max_width": max((d.get("width", 0.0) for d in details), default=0.0),
        "unit_cases": sum(1 for d in details if d.get("unit_case")),
    }


# -- element splitting -------------------------------------------------------------


def _split_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    eps = _eps_for(cfg, trial, EPS_MAIN)
    weights, reps = inst.split_instance(rng, cfg.p, eps)

    def render():
        element = _weighted_sum(
            (piece, a) for a, rep in zip(weights, reps) for piece in rep.pieces
        )
        return element.to_text()

    def check():
        # split_element runs the result's validate: reassembly and gauge_bound^8 <= 5^8 eps
        result = split_element(weights, reps, eps, cfg.p)
        return True, {
            "epsilon": eps,
            "reps": len(reps),
            "slices": len(result.slices),
            "front_count": result.front_count,
            "gauge_bound": result.gauge_bound,
        }

    return render, check


def _split_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    margins = [
        Fraction(d["gauge_bound"]) ** 8 / (5**8 * Fraction(d["epsilon"]))
        for d in details
        if "gauge_bound" in d
    ]
    return {"max_bound_8th_over_eps": max(margins, default=None)}


# -- merge of decreasing families --------------------------------------------------


def _halved_prefixes_ok(result: MergeResult) -> bool:
    """Whether half of every selected prefix of the merge is a unit member.

    Every conjunct of ``is_unit_member`` but the Lorentz test holds for a
    prefix when it holds for the whole family, so one check of the halved
    family covers them; the Lorentz test runs at each breakpoint, the last
    of which is the whole family.
    """
    half = result.half_sum()
    return half.is_unit_member() and all(
        lorentz_le_sq(half.norms_sq[:cut], 1, half.p) for cut in result.breakpoints[1:]
    )


def _merge_trial(rng: random.Random, trial: int, cfg: SweepConfig):
    family = inst.merge_family(rng, cfg.p)

    def check():
        result = merge_representatives(family, cfg.p)
        kept_all = result.selected == tuple(range(len(family)))
        prefixes_ok = _halved_prefixes_ok(result)
        return kept_all and prefixes_ok, {
            "family": len(family),
            "kept": len(result.selected),
            "pieces": result.merged.length,
            "prefixes_ok": prefixes_ok,
        }

    return lambda: "\n".join(rep.element().to_text() for rep in family), check


def _merge_stats(cfg: SweepConfig, details: list[dict]) -> dict:
    return {"families_kept_whole": sum(1 for d in details if d.get("kept") == 50)}


class Suite(NamedTuple):
    """The trials of one sweep and its summary statistics.

    ``trials`` may reject the config before anything runs; ``failures``
    adds suite-level failures that belong to no single trial.
    """

    trials: Callable[[SweepConfig], list[Trial]]
    stats: Callable[[SweepConfig, list[dict]], dict]
    failures: Callable[[SweepConfig], list[dict]] = lambda cfg: []


SUITES: dict[str, Suite] = {
    "select": Suite(_select_trials, _select_stats),
    "partition": Suite(_random_trials(_partition_trial), _partition_stats),
    "kdisjoint": Suite(_random_trials(_kdisjoint_trial), _kdisjoint_stats),
    "smallsup": Suite(_smallsup_trials, _smallsup_stats),
    "blocks": Suite(_random_trials(_blocks_trial), _blocks_stats),
    "mainlemma": Suite(_mainlemma_trials, _mainlemma_stats),
    "quotient": Suite(_random_trials(_quotient_trial), _quotient_stats, _quotient_failures),
    "sandwich": Suite(_random_trials(_sandwich_trial), _sandwich_stats),
    "split": Suite(_random_trials(_split_trial), _split_stats),
    "merge": Suite(_random_trials(_merge_trial), _merge_stats),
}

# acceptance-scale trial counts, one entry per suite
DEFAULT_TRIALS: dict[str, int] = {
    "select": 1000,
    "partition": 500,
    "kdisjoint": 1000,
    "smallsup": 500,
    "blocks": 500,
    "mainlemma": 100,
    "quotient": 1000,
    "sandwich": 200,
    "split": 100,
    "merge": 50,
}


def run_suite(cfg: SweepConfig) -> Report:
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; choose from {sorted(SUITES)}")
    suite = SUITES[cfg.suite]
    records, failures, details = _execute(cfg, suite.trials(cfg))
    failures += suite.failures(cfg)
    stats = suite.stats(cfg, details)
    return Report(cfg, tuple(records), tuple(failures), jsonable(stats))
