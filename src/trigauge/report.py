"""Sweep configuration and report serialization.

Reports are canonical JSON: sorted keys, two-space indent, one trailing
newline, rationals as fraction strings.  Identical configurations must
produce byte-identical files, so nothing time- or locale-dependent goes
in, and floats appear only through repr via json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

from .core import DEFAULT_P, LorentzParam
from .exact import parse_fraction

REPORT_VERSION = 1


@dataclass(frozen=True, slots=True)
class SweepConfig:
    suite: str
    p: LorentzParam = DEFAULT_P
    seed: int = 0
    trials: int = 100
    max_row: int = 50
    max_m: int = 200
    epsilon: Fraction | None = None
    tolerance: Fraction = Fraction(1, 1000)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.max_row < 1 or self.max_m < 1:
            raise ValueError("size caps must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.epsilon is not None and not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")

    def echo(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "p": str(self.p),
            "seed": self.seed,
            "trials": self.trials,
            "max_row": self.max_row,
            "max_m": self.max_m,
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "tolerance": str(self.tolerance),
        }

    @classmethod
    def from_echo(cls, data: Mapping[str, Any]) -> "SweepConfig":
        num, _, den = str(data["p"]).partition("/")
        return cls(
            suite=data["suite"],
            p=LorentzParam(int(num), int(den or 1)),
            seed=int(data["seed"]),
            trials=int(data["trials"]),
            max_row=int(data["max_row"]),
            max_m=int(data["max_m"]),
            epsilon=None if data["epsilon"] is None else parse_fraction(data["epsilon"]),
            tolerance=parse_fraction(data["tolerance"]),
        )


@dataclass(frozen=True, slots=True)
class TrialRecord:
    trial: int
    ok: bool
    detail: dict[str, Any]
    digest: str


@dataclass(frozen=True, slots=True)
class Report:
    config: SweepConfig
    records: tuple[TrialRecord, ...]
    failures: tuple[dict[str, Any], ...]
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def suite(self) -> str:
        return self.config.suite

    @property
    def passed(self) -> bool:
        return not self.failures

    def payload(self) -> dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "config": self.config.echo(),
            "aggregate": {
                "trials": len(self.records),
                "failures": len(self.failures),
                "pass": self.passed,
                "stats": self.stats,
            },
            "records": [
                {
                    "trial": r.trial,
                    "ok": r.ok,
                    "digest": r.digest,
                    "detail": r.detail,
                }
                for r in self.records
            ],
            "failures": list(self.failures),
        }

    def to_json(self) -> str:
        return canonical_json(self.payload())

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["trial", "ok", "digest", "detail"])
        for r in self.records:
            writer.writerow(
                [r.trial, "pass" if r.ok else "FAIL", r.digest, flat_detail(r.detail)]
            )
        writer.writerow(
            ["aggregate", "pass" if self.passed else "FAIL", "", flat_detail(self.stats)]
        )
        return out.getvalue()

    def rendered(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def jsonable(value: Any) -> Any:
    """Exact-friendly conversion: fractions become strings, tuples lists."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def canonical_json(payload: Any) -> str:
    """``json.dumps(jsonable(payload), sort_keys=True, indent=2)`` plus a
    newline, from a recursive encoder over the types ``jsonable`` leaves.

    Under ``indent`` the standard library encodes through nested
    closures that form reference cycles, so every call left garbage for
    the cyclic collector; this encoder leaves none.  Any other type
    raises ``TypeError``, as ``json.dumps`` does.
    """
    out: list[str] = []
    _encode(jsonable(payload), "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value: Any, newline: str, out: list[str]) -> None:
    """Append the JSON text of value, nested at the indent of newline."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value == math.inf:
            out.append("Infinity")
        elif value == -math.inf:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def make_record(trial: int, ok: bool, detail: Mapping[str, Any]) -> TrialRecord:
    detail = dict(jsonable(detail))
    return TrialRecord(trial, ok, detail, digest(detail))


def flat_detail(detail: Mapping[str, Any]) -> str:
    return ";".join(f"{k}={detail[k]}" for k in sorted(detail))


# JSON type of every field a loaded report must carry (see Report.payload)
CONFIG_TYPES = {
    "suite": str,
    "p": str,
    "seed": int,
    "trials": int,
    "max_row": int,
    "max_m": int,
    "epsilon": (str, type(None)),
    "tolerance": str,
}
AGGREGATE_TYPES = {"trials": int, "failures": int, "pass": bool, "stats": dict}
RECORD_TYPES = {"trial": int, "ok": bool, "digest": str, "detail": dict}


def _check_fields(part: Any, types: Mapping[str, Any], where: str) -> None:
    if not isinstance(part, dict):
        raise ValueError(f"report has no {where} object")
    missing = [name for name in types if name not in part]
    if missing:
        raise ValueError(f"report {where} lacks {', '.join(missing)}")
    for name, kind in types.items():
        value = part[name]
        # JSON true/false load as bool, which Python also counts as int
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
            raise ValueError(f"report {where} field {name} has the wrong type")


def load_report_payload(text: str) -> dict[str, Any]:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("report JSON nests too deeply") from None
    if not isinstance(data, dict) or "config" not in data:
        raise ValueError("not a sweep report")
    if data.get("version") != REPORT_VERSION:
        raise ValueError(f"unsupported report version {data.get('version')!r}")
    _check_fields(data.get("config"), CONFIG_TYPES, "config")
    _check_fields(data.get("aggregate"), AGGREGATE_TYPES, "aggregate")
    for key in ("records", "failures"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"report has no {key} list")
    for record in data["records"]:
        _check_fields(record, RECORD_TYPES, "record")
    if not all(isinstance(fail, dict) for fail in data["failures"]):
        raise ValueError("report failures must be objects")
    return data


def summarize(payload: Mapping[str, Any]) -> str:
    agg = payload["aggregate"]
    cfg = payload["config"]
    lines = [
        f"suite {cfg['suite']}: {agg['trials']} trials, "
        f"{agg['failures']} failures ({'pass' if agg['pass'] else 'FAIL'})",
        f"  p={cfg['p']} seed={cfg['seed']} epsilon={cfg['epsilon']}",
    ]
    for key in sorted(agg["stats"]):
        lines.append(f"  {key}: {agg['stats'][key]}")
    for fail in payload["failures"][:5]:
        lines.append(f"  failure at trial {fail.get('trial')}: {fail.get('error')}")
    return "\n".join(lines) + "\n"
