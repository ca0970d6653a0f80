"""Command line behavior: flags, artifacts, exit codes."""

import json
from fractions import Fraction as F

import pytest

from trigauge import cli, gauge
from trigauge.cli import build_parser, main
from trigauge.core import TriVector
from trigauge.generators import GridSeq, seq_file_text
from trigauge.micro import SUPPORT_ROW_CAP
from trigauge.report import load_report_payload


def test_parser_defaults():
    args = build_parser().parse_args(["sweep", "blocks"])
    assert (args.p.num, args.p.den) == (3, 2)
    assert args.seed == 0 and args.trials == 100
    assert args.max_row == 50 and args.max_m == 200
    assert args.epsilon is None and args.format == "json"


def test_parser_rejects_bad_values():
    parser = build_parser()
    for argv in (
        ["sweep", "unknown-suite"],
        ["sweep", "blocks", "--p", "5/2"],
        ["sweep", "blocks", "--epsilon", "3/2"],
        ["sweep", "blocks", "--format", "yaml"],
        ["quotient", "1/x"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_sweep_writes_report_and_replay_confirms(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["sweep", "smallsup", "--trials", "3", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "smallsup" in summary and "pass" in summary
    payload = load_report_payload(out.read_text())
    assert payload["aggregate"]["pass"] is True

    assert main(["replay", str(out)]) == 0
    assert "identical" in capsys.readouterr().out


def test_replay_detects_tampering(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["sweep", "blocks", "--trials", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["records"][0]["digest"] = "0" * 64
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    assert main(["replay", str(out)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_sweep_without_out_prints_report(capsys):
    assert main(["sweep", "blocks", "--trials", "2", "--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate"]["trials"] == 2


def test_sweep_csv_format(capsys):
    assert main(["sweep", "blocks", "--trials", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "trial,ok,digest,detail"
    assert lines[-1].startswith("aggregate,pass")


def test_report_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["sweep", "select", "--trials", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert "select" in capsys.readouterr().out
    assert main(["report", str(out), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("trial,ok,digest,detail")


DECOMPOSE_SEQS = [GridSeq((1,)), GridSeq((0, 2)), GridSeq((0, 0, 3))]
DECOMPOSE_SEQS += [GridSeq(())] * 9


def test_decompose_command(tmp_path, capsys):
    path = tmp_path / "seqs.txt"
    path.write_text(seq_file_text(DECOMPOSE_SEQS))
    code = main(["decompose", str(path), "--epsilon", "1/4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["problems"] == []
    assert payload["m"] == 12
    assert payload["k"] == 3


def test_decompose_failed_check_exits_one(tmp_path, capsys, monkeypatch):
    def failing(seqs, epsilon, p):
        raise AssertionError("theta below the blocking threshold")

    monkeypatch.setattr(cli, "decompose_average", failing)
    path = tmp_path / "seqs.txt"
    path.write_text(seq_file_text(DECOMPOSE_SEQS))
    code = main(["decompose", str(path), "--epsilon", "1/4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload == {
        "epsilon": "1/4",
        "p": "3/2",
        "problems": ["theta below the blocking threshold"],
    }


def test_tau_bounds_unit_indicator(tmp_path, capsys):
    x = TriVector({(2, 1): F(1), (2, 2): F(1)})
    path = tmp_path / "x.txt"
    path.write_text(x.to_text())
    code = main(["tau-bounds", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["refined"] is True
    assert payload["lower"] == "1" and payload["upper"] == "1"


def test_tau_bounds_deep_support_skips_refinement(tmp_path, capsys):
    x = TriVector({(6, 3): F(1, 2)})
    path = tmp_path / "x.txt"
    path.write_text(x.to_text())
    assert main(["tau-bounds", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["refined"] is False
    assert payload["max_row"] == 6


@pytest.mark.parametrize(
    "row, refined", [(SUPPORT_ROW_CAP, True), (SUPPORT_ROW_CAP + 1, False)]
)
def test_tau_bounds_refines_up_to_the_row_cap(tmp_path, capsys, row, refined):
    x = TriVector({(row, 1): F(1, 2)})
    path = tmp_path / "x.txt"
    path.write_text(x.to_text())
    assert main(["tau-bounds", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_row"] == row and payload["refined"] is refined


def test_tau_bounds_nine_rows_finishes(tmp_path, capsys):
    x = TriVector({(i, (i + 1) // 2): F(1, i) for i in range(1, 10)})
    path = tmp_path / "x.txt"
    path.write_text(x.to_text())
    assert main(["tau-bounds", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_row"] == 9 and payload["refined"] is False
    assert F(payload["lower"]) <= F(payload["upper"])


def test_tau_bounds_decr_ten_rows_finishes(tmp_path, capsys):
    # the whole-support hull LP here took minutes before its row prefixes
    x = TriVector({(i, j): F(2 * i - j, 2 * i) for i in range(1, 11) for j in range(1, i + 1)})
    path = tmp_path / "x.txt"
    path.write_text(x.to_text())
    assert main(["tau-bounds", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_row"] == 10 and payload["refined"] is False
    assert F(payload["lower"]) <= F(payload["upper"])


def test_tau_bounds_builds_one_interval(tmp_path, capsys, monkeypatch):
    # rows 1..3: the refinement's own cheap interval is the only one built
    calls = []
    upper = gauge.gauge_upper

    def counted(x, p):
        calls.append(x)
        return upper(x, p)

    monkeypatch.setattr(gauge, "gauge_upper", counted)
    x = TriVector({(i, j): F(1) for i in range(1, 4) for j in range(1, i + 1)})
    path = tmp_path / "x.txt"
    path.write_text(x.to_text())
    assert main(["tau-bounds", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["refined"] is True
    assert calls == [x]


def test_quotient_command(capsys):
    assert main(["quotient", "3/5", "4/5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pairing"] == "4/5"
    assert F(payload["pairing"]) >= F(2, 9)


def test_quotient_rejects_non_unit(capsys):
    assert main(["quotient", "1/2", "1/2"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(capsys):
    assert main(["report", "/nonexistent/r.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_failing_report_exits_one(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["sweep", "blocks", "--trials", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["aggregate"]["pass"] = False
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["report", str(out)]) == 1


def test_zero_denominator_in_vector_file_exits_two(tmp_path, capsys):
    path = tmp_path / "x.txt"
    path.write_text("trivector 1\n1 1 1/0\n")
    assert main(["tau-bounds", str(path)]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "path"),
    [
        ("replay", ("config", "p")),
        ("report", ("aggregate",)),
        ("report", ("records", 0, "digest")),
    ],
    ids=["config-p", "aggregate", "record-digest"],
)
def test_incomplete_report_exits_two(tmp_path, capsys, command, path):
    out = tmp_path / "r.json"
    assert main(["sweep", "blocks", "--trials", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, str(out), "--format", "csv"]) == 2
    assert path[-1] in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "path", "value"),
    [
        ("replay", ("config", "seed"), [1]),
        ("report", ("aggregate", "stats"), [1]),
    ],
    ids=["config-seed", "aggregate-stats"],
)
def test_wrong_field_type_exits_two(tmp_path, capsys, command, path, value):
    out = tmp_path / "r.json"
    assert main(["sweep", "blocks", "--trials", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload[path[0]][path[1]] = value
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, str(out)]) == 2
    assert path[-1] in capsys.readouterr().err


@pytest.mark.parametrize("field", ["epsilon", "tolerance"])
@pytest.mark.parametrize("command", ["replay", "report"])
def test_zero_denominator_in_report_config_exits_two(tmp_path, capsys, command, field):
    out = tmp_path / "r.json"
    assert main(["sweep", "blocks", "--trials", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["config"][field] = "1/0"
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, str(out), "--format", "csv"]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "replay"])
def test_deeply_nested_report_exits_two(tmp_path, capsys, command):
    path = tmp_path / "r.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, str(path)]) == 2
    assert "nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("literal", "message"),
    [
        ("1e400", "lower_float is out of float range"),
        ("1e20000", "more than"),
        ("1e2000000", "more than"),
    ],
)
def test_huge_vector_entry_exits_two(tmp_path, capsys, literal, message):
    path = tmp_path / "x.txt"
    path.write_text(f"trivector 1\n1 1 {literal}\n")
    assert main(["tau-bounds", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
