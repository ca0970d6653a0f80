"""Command line front end.

Subcommands mirror the library surface: seeded sweeps, one-shot
decompositions, gauge bounds for a vector, quotient pairing witnesses,
and replay/summary of saved sweep reports.  Every command exits 0 only
when the checked property holds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .core import DEFAULT_P, LorentzParam, TriVector, lorentz_l2_constant
from .decompose import decompose_average
from .exact import parse_fraction
from .gauge import gauge_interval, pairing_witness
from .generators import parse_seq_file
from .micro import DEFAULT_TOL, SUPPORT_ROW_CAP, ToleranceUnreachableError, tau_micro_oracle
from .report import (
    Report,
    SweepConfig,
    TrialRecord,
    canonical_json,
    load_report_payload,
    summarize,
)
from .sweeps import SUITES, run_suite


def _p_arg(text: str) -> LorentzParam:
    try:
        return LorentzParam.from_fraction(parse_fraction(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _eps_arg(text: str) -> Fraction:
    try:
        eps = parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not 0 < eps < 1:
        raise argparse.ArgumentTypeError(f"epsilon must lie in (0, 1), got {eps}")
    return eps


def _coeff_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_p(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--p",
        type=_p_arg,
        default=DEFAULT_P,
        metavar="NUM/DEN",
        help="Lorentz exponent in (1, 2), default 3/2",
    )


def _float_field(name: str, value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of float range") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        suite=args.suite,
        p=args.p,
        seed=args.seed,
        trials=args.trials,
        max_row=args.max_row,
        max_m=args.max_m,
        epsilon=args.epsilon,
    )
    report = run_suite(cfg)
    _emit(report.rendered(args.format), args.out)
    if args.out:
        sys.stdout.write(summarize(report.payload()) + "\n")
    return 0 if report.passed else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    seqs = parse_seq_file(Path(args.file).read_text())
    payload = {"epsilon": str(args.epsilon), "p": str(args.p)}
    try:
        cert = decompose_average(seqs, args.epsilon, args.p)
    except AssertionError as exc:
        # decompose_average validates its certificate and raises at the first failed condition
        payload["problems"] = [str(exc)]
    else:
        payload.update(
            m=cert.m_count,
            k=cert.k,
            blocks=len(cert.blocks),
            breakpoints=list(cert.breakpoints),
            scale=str(cert.scale),
            scale_float=float(cert.scale),
            problems=[],
        )
    _emit(canonical_json(payload), args.out)
    return 1 if payload["problems"] else 0


def _cmd_tau_bounds(args: argparse.Namespace) -> int:
    x = TriVector.from_text(Path(args.file).read_text())
    refined = x.max_row <= SUPPORT_ROW_CAP
    payload = {"p": str(args.p), "max_row": x.max_row, "refined": refined}
    code = 0
    if refined:
        tol = args.epsilon if args.epsilon is not None else DEFAULT_TOL
        try:
            interval = tau_micro_oracle(x, args.p, tol=tol)
        except ToleranceUnreachableError as err:
            interval = err.interval
            code = 1
        payload["tolerance"] = str(tol)
        payload["tolerance_reached"] = code == 0
    else:
        interval = gauge_interval(x, args.p)
    payload["lower"] = str(interval.lo)
    payload["upper"] = str(interval.hi)
    payload["lower_float"] = _float_field("lower_float", interval.lo)
    payload["upper_float"] = _float_field("upper_float", interval.hi)
    if refined:
        payload["width_float"] = _float_field("width_float", interval.hi - interval.lo)
    _emit(canonical_json(payload), args.out)
    return code


def _cmd_quotient(args: argparse.Namespace) -> int:
    try:
        witness = pairing_witness(args.coeffs, args.p)
    except (ValueError, AssertionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    constant = lorentz_l2_constant(args.p)
    payload = {
        "p": str(args.p),
        "coeffs": [str(c) for c in args.coeffs],
        "pairing": str(witness.pairing),
        "pairing_float": float(witness.pairing),
        "branch": witness.branch,
        "floor": "2/9",
        "norm_constant_float": float(constant.hi),
    }
    _emit(canonical_json(payload), args.out)
    return 0 if witness.pairing >= Fraction(2, 9) else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    payload = load_report_payload(Path(args.file).read_text())
    cfg = SweepConfig.from_echo(payload["config"])
    report = run_suite(cfg)
    identical = report.to_json() == canonical_json(payload)
    line = (
        f"replay {cfg.suite}: reports identical"
        if identical
        else f"replay {cfg.suite}: MISMATCH against stored report"
    )
    sys.stdout.write(line + "\n")
    sys.stdout.write(summarize(report.payload()) + "\n")
    if args.out:
        Path(args.out).write_text(report.rendered(args.format))
    return 0 if identical and report.passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    payload = load_report_payload(Path(args.file).read_text())
    if args.format == "csv":
        cfg = SweepConfig.from_echo(payload["config"])
        records = tuple(
            TrialRecord(r["trial"], r["ok"], r["detail"], r["digest"])
            for r in payload["records"]
        )
        report = Report(
            cfg,
            records,
            tuple(payload.get("failures", ())),
            payload["aggregate"].get("stats", {}),
        )
        _emit(report.to_csv(), args.out)
    else:
        _emit(summarize(payload), args.out)
    return 0 if payload["aggregate"]["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigauge",
        description="Exact checks for the triangular gauge construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a seeded property sweep")
    sweep.add_argument("suite", choices=sorted(SUITES))
    _add_p(sweep)
    sweep.add_argument("--epsilon", type=_eps_arg, default=None, metavar="NUM/DEN")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--trials", type=int, default=100)
    sweep.add_argument("--max-row", type=int, default=50, dest="max_row")
    sweep.add_argument("--max-m", type=int, default=200, dest="max_m")
    sweep.add_argument("--out", default=None, metavar="PATH")
    sweep.add_argument("--format", choices=("json", "csv"), default="json")
    sweep.set_defaults(fn=_cmd_sweep)

    dec = sub.add_parser("decompose", help="decompose an averaged generator file")
    dec.add_argument("file", help="text file of 'b:' generator lines")
    _add_p(dec)
    dec.add_argument("--epsilon", type=_eps_arg, default=Fraction(1, 4), metavar="NUM/DEN")
    dec.add_argument("--out", default=None, metavar="PATH")
    dec.set_defaults(fn=_cmd_decompose)

    tau = sub.add_parser("tau-bounds", help="certified gauge bounds for a vector")
    tau.add_argument("file", help="trivector text file")
    _add_p(tau)
    tau.add_argument(
        "--epsilon",
        type=_eps_arg,
        default=None,
        metavar="NUM/DEN",
        help="target interval width for the refinement, default 1/1000",
    )
    tau.add_argument("--out", default=None, metavar="PATH")
    tau.set_defaults(fn=_cmd_tau_bounds)

    quo = sub.add_parser("quotient", help="pairing witness for a unit coefficient vector")
    quo.add_argument("coeffs", nargs="+", type=_coeff_arg, metavar="NUM/DEN")
    _add_p(quo)
    quo.add_argument("--out", default=None, metavar="PATH")
    quo.set_defaults(fn=_cmd_quotient)

    rep = sub.add_parser("replay", help="re-run a saved sweep report and compare")
    rep.add_argument("file", help="report JSON file")
    rep.add_argument("--out", default=None, metavar="PATH")
    rep.add_argument("--format", choices=("json", "csv"), default="json")
    rep.set_defaults(fn=_cmd_replay)

    summ = sub.add_parser("report", help="summarize or re-render a saved report")
    summ.add_argument("file", help="report JSON file")
    summ.add_argument("--out", default=None, metavar="PATH")
    summ.add_argument("--format", choices=("json", "csv"), default="json")
    summ.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
