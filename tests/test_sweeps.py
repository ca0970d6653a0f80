"""Sweep runner: determinism, per-suite success on small runs, failure capture."""

import dataclasses
from fractions import Fraction as F

import pytest

from trigauge import decompose, instances
from trigauge.core import DEFAULT_P, TriVector
from trigauge.decompose import (
    DecompositionCertificate,
    SplitResult,
    make_disjoint_rep,
    merge_representatives,
)
from trigauge.gauge import GaugeCertificate
from trigauge.generators import HullCertificate, parse_seq_file
from trigauge.report import SweepConfig, load_report_payload
from trigauge.sweeps import (
    DEFAULT_TRIALS,
    EPS_MAIN,
    SUITES,
    _execute,
    _halved_prefixes_ok,
    run_suite,
    trial_rng,
)


def test_trial_rng_is_reproducible_and_spread():
    a = trial_rng("select", 3, 7).random()
    b = trial_rng("select", 3, 7).random()
    assert a == b
    streams = {trial_rng("select", 3, t).random() for t in range(50)}
    assert len(streams) == 50
    assert trial_rng("select", 3, 0).random() != trial_rng("merge", 3, 0).random()


def test_registry_matches_trial_counts():
    assert set(SUITES) == set(DEFAULT_TRIALS)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(SweepConfig(suite="nope", trials=1))


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_small_run_passes_and_is_deterministic(suite):
    trials = 1 if suite == "merge" else 4
    cfg = SweepConfig(suite=suite, trials=trials, seed=17)
    report = run_suite(cfg)
    assert report.passed, report.failures[:1]
    assert run_suite(cfg).to_json() == report.to_json()
    payload = load_report_payload(report.to_json())
    assert payload["config"]["suite"] == suite
    assert payload["aggregate"]["trials"] >= trials


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13])
def test_sandwich_closes_across_seeds(seed):
    # the sandwich trial count of the benchmark's sweep workload: a single
    # trial that misses the tolerance fails the whole report
    report = run_suite(SweepConfig("sandwich", seed=seed, trials=8))
    assert report.passed, report.failures[:1]


def test_different_seeds_differ():
    a = run_suite(SweepConfig(suite="blocks", trials=5, seed=1))
    b = run_suite(SweepConfig(suite="blocks", trials=5, seed=2))
    assert a.to_json() != b.to_json()


def test_select_includes_exhaustive_phase():
    report = run_suite(SweepConfig(suite="select", trials=2, seed=0))
    phases = [r.detail.get("phase") for r in report.records]
    assert phases.count("exhaustive") == 33
    assert len(report.records) == 2 + 33


def test_quotient_stats_carry_floor_and_cap():
    report = run_suite(SweepConfig(suite="quotient", trials=6, seed=5))
    stats = report.stats
    assert F(stats["min_pairing"]) >= F(2, 9)
    assert stats["constant_width_ok"] is True


def test_smallsup_rejects_hostile_cap():
    with pytest.raises(ValueError, match="cannot host"):
        run_suite(SweepConfig(suite="smallsup", trials=1, epsilon=F(1, 64), max_m=16))


def test_explicit_epsilon_is_used_everywhere():
    report = run_suite(
        SweepConfig(suite="split", trials=3, seed=2, epsilon=F(1, 16))
    )
    assert report.passed
    assert {r.detail["epsilon"] for r in report.records} == {"1/16"}


def test_execute_turns_exceptions_into_failures():
    cfg = SweepConfig(suite="blocks", trials=3, seed=0)

    def boom(rng, trial, _cfg):
        def check():
            if trial == 1:
                raise RuntimeError("synthetic")
            return True, {"fine": trial}

        return lambda: f"instance {trial}", check

    trials = [(t, boom, "property violated") for t in range(cfg.trials)]
    records, failures, details = _execute(cfg, trials)
    assert [r.ok for r in records] == [True, False, True]
    assert len(failures) == 1
    assert "synthetic" in failures[0]["error"]
    assert failures[0]["trial"] == 1
    assert failures[0]["instance"] == "instance 1"


# -- a builder's failed check keeps the drawn instance --------------------------


def forced_failure(*args, **kwargs):
    raise AssertionError("forced check failure")


def parse_matrix(text):
    return tuple(tuple(F(v) for v in line.split()) for line in text.splitlines())


def parse_quotient(text):
    head, _, rest = text.partition("\n")
    assert head.startswith("b ")
    return tuple(F(v) for v in head.split()[1:]), TriVector.from_text(rest)


def drawn_partition(rng, cfg):
    return instances.sorted_unit_matrix(rng)


def drawn_mainlemma(rng, cfg):
    return instances.covered_generators(
        rng, EPS_MAIN[0], max_m=cfg.max_m, max_row=cfg.max_row, max_waves=10
    )


def drawn_quotient(rng, cfg):
    b = instances.unit_vector(rng)
    return b, instances.body_element(rng, cfg.p)[0]


def drawn_split(rng, cfg):
    weights, reps = instances.split_instance(rng, cfg.p, EPS_MAIN[0])
    return sum((rep.element().scale(a) for a, rep in zip(weights, reps)), TriVector())


@pytest.mark.parametrize(
    "suite, owner, check, parse, drawn",
    [
        ("partition", decompose, "_validate_partition", parse_matrix, drawn_partition),
        ("mainlemma", DecompositionCertificate, "validate", parse_seq_file, drawn_mainlemma),
        # pairing_witness checks its certificate's cover, not its representative
        ("quotient", GaugeCertificate, "_check_cover", parse_quotient, drawn_quotient),
        ("split", SplitResult, "validate", TriVector.from_text, drawn_split),
    ],
    ids=["partition", "mainlemma", "quotient", "split"],
)
def test_failed_builder_check_keeps_the_instance(monkeypatch, suite, owner, check, parse, drawn):
    monkeypatch.setattr(owner, check, forced_failure)
    cfg = SweepConfig(suite, seed=1, trials=2)
    report = run_suite(cfg)
    assert not report.passed
    failure = report.failures[0]
    assert failure["trial"] == 0 and "forced check failure" in failure["error"]
    assert failure["instance"] is not None
    assert parse(failure["instance"]) == drawn(trial_rng(suite, 1, 0), cfg)


def test_failure_reports_render_and_fail_the_report():
    from trigauge.report import Report, make_record

    cfg = SweepConfig(suite="blocks", trials=1, seed=0)
    rec = make_record(0, False, {"bad": True})
    rep = Report(
        cfg,
        (rec,),
        ({"trial": 0, "error": "x", "detail": {"bad": True}, "instance": None},),
        {},
    )
    assert not rep.passed
    assert '"pass": false' in rep.to_json()


# -- the merge trial's prefix check -------------------------------------------


def prefix_loop_reference(result):
    """The per-prefix check the one-pass check replaced: build half of
    every selected prefix with make_disjoint_rep and test it."""
    pieces = [piece.scale(F(1, 2)) for piece in result.merged.pieces]
    certs = [HullCertificate(c.seqs, c.weights, c.scale / 2) for c in result.merged.certs]
    ok = True
    for cut in result.breakpoints[1:]:
        halved = make_disjoint_rep(pieces[:cut], DEFAULT_P, certs=certs[:cut])
        ok = ok and halved.is_unit_member()
    return ok


def verdict(check, result):
    try:
        return check(result)
    except (AssertionError, ValueError):
        return False


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_halved_prefixes_match_the_prefix_loop(seed):
    family = instances.merge_family(trial_rng("merge", seed, 0), DEFAULT_P)
    result = merge_representatives(family, DEFAULT_P)
    assert verdict(_halved_prefixes_ok, result) is True
    assert verdict(prefix_loop_reference, result) is True


def test_forged_halved_certificate_fails_both_checks():
    family = instances.merge_family(trial_rng("merge", 1, 0), DEFAULT_P)
    result = merge_representatives(family, DEFAULT_P)
    # piece 5 claims half its true hull scale, so its halved certificate
    # no longer covers the halved piece
    certs = list(result.merged.certs)
    certs[5] = dataclasses.replace(certs[5], scale=certs[5].scale / 2)
    forged = dataclasses.replace(
        result, merged=dataclasses.replace(result.merged, certs=tuple(certs))
    )
    assert verdict(_halved_prefixes_ok, forged) is False
    assert verdict(prefix_loop_reference, forged) is False


def test_merge_suite_validates_each_certificate_a_bounded_number_of_times(monkeypatch):
    calls = []
    validate = HullCertificate.validate

    def counted(cert, x):
        calls.append(cert)
        return validate(cert, x)

    monkeypatch.setattr(HullCertificate, "validate", counted)
    assert run_suite(SweepConfig("merge", seed=1, trials=2)).passed
    # 3 per piece: once as drawn, once at merge's input gate, once in the
    # sweep's halved check (5,400 while every prefix was rebuilt and
    # checked twice, then 500)
    assert len(calls) <= 300
