"""trigauge benchmark: end-to-end timings, layer spans, independent checks.

Run from the root of a checkout (the directory holding ``src/trigauge``):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

A run repeats whole rounds of its workload until ``--seconds`` have
passed (at least three rounds), checks every output independently, and
prints the metrics, then one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` rounds run in pairs, one untraced and one traced on the
same inputs, and the metrics are the per-layer ones.  A failed check
exits 1; a checkout without ``src/trigauge`` exits 2.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # the reference LP stays single-threaded

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibration
import checker
import layertrace as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
MIN_ROUNDS = 3
SETUP_SAMPLES = 7
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import trigauge
trigauge.lorentz_l2_constant(trigauge.DEFAULT_P)
setup = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import calibration, statistics
print(setup, statistics.median(calibration.speed_sample() for _ in range(3)))
"""
SUITES = tuple(workloads.SWEEP_TRIALS)
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}


def load_program():
    package = SRC / "trigauge" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"no trigauge sources at {package}; run from the root of a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import trigauge

    if Path(trigauge.__file__).resolve() != package.resolve():
        sys.stderr.write(f"imported trigauge from {trigauge.__file__}, not from {package}\n")
        sys.exit(2)
    return trigauge


def measure_setup() -> float:
    """Median over fresh processes of: import trigauge, enclose C(p);
    each sample scaled by the calibration loop timed in the same process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, speed = map(float, out.stdout.split()[-2:])
        samples.append(setup * calibration.REFERENCE_S / speed)
    return statistics.median(samples)


class Round:
    """Labels and (start, wall seconds) of each call, and the failed count."""

    def __init__(self, labels, calls, failed):
        self.labels, self.calls, self.failed = labels, calls, failed
        self.times: list[float] = []  # reference seconds, filled in after the run

    @property
    def total(self) -> float:
        return sum(self.times)


def execute(workload, ops, deferred, tracer, speeds: calibration.SpeedLog) -> Round:
    """Time each program call, then check every outcome untraced.

    A calibration pass runs before the first call and after each one,
    outside the timed calls (see calibration.py).
    """
    calls, outcomes = [], []
    speeds.sample()
    if tracer:
        tracer.install()
    try:
        for _, payload in ops:
            start = time.perf_counter()
            outcomes.append(workload.call(payload, tracer))
            calls.append((start, time.perf_counter() - start))
            speeds.sample()
    finally:
        if tracer:
            tracer.uninstall()
    failed = sum(workload.check(payload, out, deferred) for (_, payload), out in zip(ops, outcomes))
    if isinstance(workload, workloads.Micro):
        sample = len(workload.fixed)  # the first seeded shape of the round
        workload.check_homogeneity(ops[sample][1], outcomes[sample])
    return Round([label for label, _ in ops], calls, failed)


def check_references(api, deferred: workloads.Deferred) -> None:
    import reference
    import selftest

    p = api.DEFAULT_P
    c = reference.c_constant(p.num, p.den)
    for ceiling in deferred.ceilings:
        checker.require(reference.at_least(ceiling, c), f"ceiling {ceiling} below C(p) = {c}")
    for z in deferred.pairings:
        checker.require(float(z) <= float(c) * (1 + 1e-12), f"pairing {z} above C(p)")
    for lo in deferred.unit_lows:
        checker.require(float(lo) >= 1 / float(c) - 1e-3, f"unit indicator lower bound {lo} below 1/C(p) - 1e-3")
    for target, hi in deferred.covers:
        optimum = reference.covering_optimum(target)
        checker.require(
            float(hi) <= optimum * (1 + reference.LP_REL_SLACK),
            f"upper bound {float(hi)} above the covering optimum {optimum}",
        )
    selftest.run(api, c)


def end_to_end(rounds: list[Round], setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "round_s": statistics.median(r.total for r in rounds),
    }


def per_layer(
    name: str, tracer: tracing.Tracer, speeds: calibration.SpeedLog, plain: list[Round], traced: list[Round]
) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    own = tracing.self_times(spans)
    n = len(traced)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    attr_sum: dict[str, float] = defaultdict(float)
    attr_max: dict[str, float] = defaultdict(float)
    upper_hulls = cover_lps = cover_cols = 0
    for idx, (span, start, end, _, attrs) in enumerate(spans):
        total[span] += end - start
        calls[span] += 1
        errors[span] += bool(attrs.get("error"))
        for key in ("columns", "cells", "n", "bytes"):
            if key in attrs:
                attr_sum[f"{span}.{key}"] += attrs[key]
                attr_max[f"{span}.{key}"] = max(attr_max[f"{span}.{key}"], attrs[key])
        if span == "generators.hull_min_scale" and tracing.ancestor(spans, idx, "gauge.upper") >= 0:
            upper_hulls += 1
        if span == "lp.solve" and attrs["site"] == "micro" and tracing.ancestor(spans, idx, "micro.oracle") >= 0:
            cover_lps += 1
            cover_cols = max(cover_cols, attrs["columns"])
    self_total: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        self_total[span[0]] += t

    def per_round(value: float) -> float:
        return value / n

    def per_call(count: int, parent: str) -> float:
        return count / calls[parent] if calls[parent] else 0.0

    def p50(workload: str, labels: tuple[str, ...] | None = None) -> float:
        """Median untraced latency of the workload's operations (with one of the labels)."""
        if name != workload:
            return 0.0
        return statistics.median(
            t for r in plain for lab, t in zip(r.labels, r.times) if labels is None or lab in labels
        )

    m = {
        "lp.solves": (per_round(calls["lp.solve"]), "count"),
        "lp.self_s": (per_round(self_total["lp.solve"]), "s"),
        "lp.columns_max": (attr_max["lp.solve.columns"], "count"),
        "lp.columns_total": (per_round(attr_sum["lp.solve.columns"]), "count"),
        "lp.cells_total": (per_round(attr_sum["lp.solve.cells"]), "count"),
        "generators.enumerate_calls": (per_round(calls["generators.enumerate"]), "count"),
        "generators.enumerated": (per_round(attr_sum["generators.enumerate.n"]), "count"),
        "generators.enumerate_s": (per_round(total["generators.enumerate"]), "s"),
        "generators.hull_min_scale_calls": (per_round(calls["generators.hull_min_scale"]), "count"),
        "generators.hull_min_scale_errors": (per_round(errors["generators.hull_min_scale"]), "count"),
        "generators.hull_min_scale_s": (per_round(total["generators.hull_min_scale"]), "s"),
        "generators.validate_calls": (per_round(calls["generators.validate"]), "count"),
        "generators.validate_s": (per_round(total["generators.validate"]), "s"),
        "decompose.make_disjoint_rep_calls": (per_round(calls["decompose.make_disjoint_rep"]), "count"),
        "decompose.make_disjoint_rep_s": (per_round(total["decompose.make_disjoint_rep"]), "s"),
        "decompose.decompose_average_s": (per_round(total["decompose.decompose_average"]), "s"),
        "decompose.partition_matrix_s": (per_round(total["decompose.partition_matrix"]), "s"),
        "decompose.merge_s": (per_round(total["decompose.merge"]), "s"),
        "decompose.split_s": (per_round(total["decompose.split"]), "s"),
        "gauge.upper_s": (per_round(total["gauge.upper"]), "s"),
        "gauge.lower_s": (per_round(total["gauge.lower"]), "s"),
        "gauge.upper_hull_calls": (per_call(upper_hulls, "gauge.upper"), "count"),
        "gauge.pairing_witness_s": (per_round(total["gauge.pairing_witness"]), "s"),
        "gauge.small_p50_s": (p50("gauge", ("small",)), "s"),
        "gauge.partition_p50_s": (p50("gauge", ("partition",)), "s"),
        "gauge.wide_p50_s": (p50("gauge", ("wide",)), "s"),
        "micro.p50_s": (p50("micro"), "s"),
        "micro.oracle_s": (per_round(total["micro.oracle"]), "s"),
        "micro.oracle_self_s": (per_round(self_total["micro.oracle"]), "s"),
        "micro.cover_lps": (per_call(cover_lps, "micro.oracle"), "count"),
        "micro.cover_columns_max": (cover_cols, "count"),
        "core.trivector_new": (per_round(tracer.counts["core.trivector_new"]), "count"),
        "core.row_norm_sq_calls": (per_round(tracer.counts["core.row_norm_sq"]), "count"),
        "core.lorentz_le_sq_calls": (per_round(tracer.counts["core.lorentz_le_sq"]), "count"),
        "exact.enclosure_calls": (per_round(calls["exact.enclosure"]), "count"),
        "exact.enclosure_s": (per_round(total["exact.enclosure"]), "s"),
    }
    for suite in SUITES:
        m[f"sweeps.{suite}_s"] = (per_round(total[f"sweeps.{suite}"]), "s")
    m["report.render_s"] = (per_round(total["report.render"]), "s")
    m["report.bytes"] = (per_round(attr_sum["report.render.bytes"]), "bytes")
    m["calibration.loop_s"] = (statistics.median(speeds.passes), "s")
    m["trace.rounds"] = (n, "count")
    m["trace.overhead_s"] = (
        statistics.median(t.total - p.total for p, t in zip(plain, traced)),
        "s",
    )
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    api = load_program()
    workload = workloads.WORKLOADS[name](api, seed)
    deferred = workloads.Deferred()
    setup_s = None if trace else measure_setup()
    tracer = tracing.Tracer() if trace else None
    speeds = calibration.SpeedLog()
    plain: list[Round] = []
    traced: list[Round] = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    try:
        r = 0
        while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
            ops = workload.round_ops(r)
            # traced pairs alternate which side runs first, so cache
            # warm-up does not land on one side only
            sides = (None, tracer) if not trace or r % 2 == 0 else (tracer, None)
            for side in sides[: 2 if trace else 1]:
                result = execute(workload, ops, deferred, side, speeds)
                (traced if side else plain).append(result)
                attempted += len(ops)
                failed += result.failed
            r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for result in plain + traced:
            result.times = [speeds.scale(start, seconds) for start, seconds in result.calls]
        check_references(api, deferred)
    except checker.CertificateError:
        traceback.print_exc()
        correct = False
    if trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{name}-{seed}.jsonl")
        metrics = per_layer(name, tracer, speeds, plain, traced) if correct else {}
    else:
        metrics = end_to_end(plain, setup_s, peak_rss_mb) if correct else {}
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    for key, (value, unit) in metrics.items():
        print(f"{name:6} {key:36} {value:>16.6g} {unit}")
    print(f"{name:6} attempted {attempted} failed {failed} rounds {len(plain)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
