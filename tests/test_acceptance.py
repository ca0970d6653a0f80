"""Acceptance gate: one test per criterion, at full trial counts.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
asserts the criterion.  Reports are cached so the determinism criterion
re-runs every suite exactly once more.
"""

import hashlib
from fractions import Fraction as F

from trigauge.core import DEFAULT_P, lorentz_l2_constant
from trigauge.report import Report, SweepConfig
from trigauge.sweeps import DEFAULT_TRIALS, run_suite

SEED = 20260816
_CACHE: dict[str, Report] = {}

# sha256 of (to_json(), to_csv()) per suite at SEED and DEFAULT_TRIALS
REPORT_DIGESTS = {
    "blocks": (
        "521634feae0fa1eb72885a9f05c29426a26ffdcdcb108c15f7520251c2e45656",
        "7e635cec31e245ef220e3ec4e21c03bbf26c1098b37ecf9ac401053dceac0673",
    ),
    "kdisjoint": (
        "571b6b4cc7ac5da4c6eb0d062e5d25881c7d172a24b6793f6c3fc01364cb84e0",
        "0e1c9590ac02e6640383b3c481ba9a624151b6751b7e11c34e14b258141c61fe",
    ),
    "mainlemma": (
        "dc7dcdc7dd665cf03d7135f70dd2b4a84bf0b7f76b25452c7e80d3db56cce128",
        "0fb8ff85b4bc854a6dbf76d89347db123e6b085c7086062002fc913b394c82ae",
    ),
    "merge": (
        "3547d8cdfd63c108030a4cc830a6b7a957710bc9e0b8368dccd1cc271f563a19",
        "38a48ce1c5b193e9ce44fde1791b29c8a785d900b4857cd13edd3223283f127b",
    ),
    "partition": (
        "9b3ffa39c4d62f08468d25cf592d3250e25052107b10838f021b8b956ef71d05",
        "ef55b6b79353eab79ccb864ba08355c586bebc525d4924cf583f671c78542aaf",
    ),
    "quotient": (
        "98cd61fcb26a10729047e1ac1e1c152cd349abc4b0baa275bfed322b7550b2d0",
        "0e73e715307f879955c9a413a4f27154a2530ef502d89ea45ebfacfd8d8c47b7",
    ),
    "sandwich": (
        "141a60eafa17ba877f6a3a12fc3f38e850fbaddb4e320f34418d5bc5ff0d7a78",
        "40d7c492770769df735ef05c0b1179704e614cc92ae009cabc66880a44e2cb1e",
    ),
    "select": (
        "7d83ea7bb6f41dce2e3727336424dbba58e8d3e8f42e96111bf8a40a28dc9ae3",
        "fece846f08d158a8bce8e33badfc6ee385872d71dbb4be0f5ac35eee6799cc77",
    ),
    "smallsup": (
        "b9c5002e7edb00048bb2e3a4448a1edb77b5fe80e795b72d141feb3dd64f3511",
        "120b123e2d07f1663c0d423452f2d77498c32e49b3ec2a108321332caf1ba89e",
    ),
    "split": (
        "f4830757e2f15ee84a94c73c013588b7ea162abcd006347aa662e6776e1ca99d",
        "55cf7baf51e6ecb98c9684506e13e0928826b51f9c1e8ba05c889cf7eda57a8b",
    ),
}


def _report(suite: str) -> Report:
    if suite not in _CACHE:
        cfg = SweepConfig(suite=suite, trials=DEFAULT_TRIALS[suite], seed=SEED)
        _CACHE[suite] = run_suite(cfg)
    return _CACHE[suite]


def _verdict(label: str, ok: bool) -> None:
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_subset_selection():
    rep = _report("select")
    exhaustive = sum(
        1 for r in rep.records if r.detail.get("phase") == "exhaustive"
    )
    ok = rep.passed and len(rep.records) >= 1000 and exhaustive == 33
    _verdict("1 select", ok)


def test_criterion_02_matrix_partition():
    rep = _report("partition")
    ok = rep.passed and len(rep.records) == 500
    _verdict("2 partition", ok)


def test_criterion_03_disjoint_norm_growth():
    rep = _report("kdisjoint")
    ok = rep.passed and len(rep.records) == 1000
    _verdict("3 kdisjoint", ok)


def test_criterion_04_covered_average_seminorm():
    rep = _report("smallsup")
    eps_seen = {r.detail["epsilon"] for r in rep.records}
    ok = rep.passed and len(rep.records) == 500
    ok = ok and eps_seen == {"1/4", "1/16", "1/64"}
    _verdict("4 smallsup", ok)


def test_criterion_05_block_conditions():
    rep = _report("blocks")
    ok = rep.passed and len(rep.records) == 500
    _verdict("5 blocks", ok)


def test_criterion_06_decomposition_certificates():
    rep = _report("mainlemma")
    eps_seen = {r.detail["epsilon"] for r in rep.records}
    ok = rep.passed and len(rep.records) == 100
    ok = ok and eps_seen == {"1/4", "1/16"}
    _verdict("6 mainlemma", ok)


def test_criterion_07_quotient_pairings():
    rep = _report("quotient")
    stats = rep.stats
    ok = rep.passed and len(rep.records) == 1000
    ok = ok and F(stats["min_pairing"]) >= F(2, 9)
    ok = ok and stats["constant_width_ok"] is True
    constant = lorentz_l2_constant(DEFAULT_P)
    ok = ok and constant.hi - constant.lo <= F(1, 1000)
    _verdict("7 quotient", ok)


def test_criterion_08_gauge_sandwich():
    rep = _report("sandwich")
    ok = rep.passed and len(rep.records) == 200
    ok = ok and rep.stats["max_width"] <= 1e-3
    ok = ok and rep.stats["unit_cases"] > 0
    _verdict("8 sandwich", ok)


def test_criterion_09_element_splitting():
    rep = _report("split")
    ok = rep.passed and len(rep.records) == 100
    _verdict("9 split", ok)


def test_criterion_10_family_merge():
    rep = _report("merge")
    kept = all(r.detail.get("kept") == 50 for r in rep.records)
    ok = rep.passed and len(rep.records) == 50 and kept
    _verdict("10 merge", ok)


def test_criterion_11_deterministic_reports():
    ok = True
    for suite in sorted(DEFAULT_TRIALS):
        first = _report(suite)
        again = run_suite(first.config)
        if first.to_json() != again.to_json():
            ok = False
        if first.rendered("csv") != again.rendered("csv"):
            ok = False
    _verdict("11 determinism", ok)


def test_report_bytes_pinned():
    got = {}
    for suite in sorted(DEFAULT_TRIALS):
        rep = _report(suite)
        got[suite] = tuple(
            hashlib.sha256(text.encode()).hexdigest() for text in (rep.to_json(), rep.to_csv())
        )
    _verdict("report bytes pinned", got == REPORT_DIGESTS)
