"""The benchmark in ``perfbench/`` still runs against this checkout.

``perfbench/`` builds certificates and witnesses positionally and reads
their fields, and its tracer wraps entry points by name, so a program
change can break a benchmark run without failing any other test.  These
tests run the benchmark's own commands from the repository root, at the
smallest run length (three rounds per workload), untraced and traced.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# failed operations per round: every operation reaches its tolerance
FAILED_PER_ROUND = {"gauge": (0, 11), "sweep": (0, 10), "micro": (0, 73)}
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=900
    )


def test_selftest_passes():
    out = _run(str(BENCH / "selftest.py"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "selftest ok"
    # the program's own validate rejects both forgeries too
    assert out.stdout.count("program validate rejects") == 2, out.stdout


@pytest.mark.parametrize("workload", sorted(FAILED_PER_ROUND))
def test_workload_runs_correct(workload):
    out = _run(str(BENCH / "run.py"), "--workload", workload, "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    failed, per_round = FAILED_PER_ROUND[workload]
    assert result["attempted"] % per_round == 0 and result["attempted"] >= 3 * per_round
    assert result["failed"] * per_round == failed * result["attempted"]
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb", "round_s"}


@pytest.mark.parametrize("workload", sorted(FAILED_PER_ROUND))
def test_traced_workload_reports_every_layer(workload):
    out = _run(str(BENCH / "run.py"), "--workload", workload, "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == PER_LAYER
    if workload == "micro":
        # the tracer sees each cover program the oracle solves
        metrics = result["metrics"]
        assert metrics["micro.cover_lps"]["value"] > 0
        assert metrics["micro.cover_columns_max"]["value"] > 0


def test_trace_entry_points_resolve():
    sys.path.insert(0, str(BENCH))
    try:
        layertrace = importlib.import_module("layertrace")
    finally:
        sys.path.remove(str(BENCH))
    for name, module, attr in layertrace.SPANS + layertrace.COUNTERS:
        owner_name, _, meth = attr.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name)
        # the tracer looks methods up in the owner's own namespace
        assert meth in vars(owner), f"{name}: {module}.{attr} is gone"
        assert callable(vars(owner)[meth]), f"{name}: {module}.{attr} is not callable"
