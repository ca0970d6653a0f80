"""Report serialization: canonical bytes, digests, config round trips."""

import gc
import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigauge.core import DEFAULT_P
from trigauge.report import (
    Report,
    SweepConfig,
    TrialRecord,
    canonical_json,
    digest,
    flat_detail,
    jsonable,
    load_report_payload,
    make_record,
    summarize,
)


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig(suite="blocks")
        assert cfg.p.num == 3 and cfg.p.den == 2
        assert cfg.trials == 100
        assert cfg.epsilon is None
        assert cfg.tolerance == F(1, 1000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"seed": -1},
            {"seed": 1 << 64},
            {"max_row": 0},
            {"max_m": 0},
            {"epsilon": F(1)},
            {"epsilon": F(0)},
            {"tolerance": F(0)},
            {"epsilon": F(3, 2)},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(suite="blocks", **kwargs)

    def test_echo_round_trip(self):
        cfg = SweepConfig(
            suite="smallsup", seed=11, trials=7, epsilon=F(1, 16), max_m=120
        )
        back = SweepConfig.from_echo(cfg.echo())
        assert back == cfg

    def test_echo_round_trip_without_epsilon(self):
        cfg = SweepConfig(suite="merge", trials=2)
        assert SweepConfig.from_echo(cfg.echo()) == cfg

    def test_echo_survives_json(self):
        cfg = SweepConfig(suite="split", epsilon=F(1, 4))
        echoed = json.loads(json.dumps(cfg.echo()))
        assert SweepConfig.from_echo(echoed) == cfg


# what jsonable can leave: JSON scalars, lists and string-keyed objects,
# with Fractions and tuples anywhere for jsonable to convert
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | st.text()
    | st.fractions(max_denominator=10**6)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_jsonable_converts_fractions_everywhere(self):
        value = {"x": F(1, 3), "nested": [F(2, 5), (F(7), "s")], "n": 4}
        out = jsonable(value)
        assert out == {"x": "1/3", "nested": ["2/5", ["7", "s"]], "n": 4}
        json.dumps(out)  # nothing exotic left behind

    def test_digest_is_sha256_of_canonical_bytes(self):
        payload = {"a": "1/2", "b": [1, 2]}
        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True, indent=2).encode() + b"\n"
        ).hexdigest()
        assert digest(payload) == expected

    def test_make_record_digests_converted_detail(self):
        rec = make_record(3, True, {"sum": F(1, 2)})
        assert rec.detail == {"sum": "1/2"}
        assert rec.digest == digest({"sum": "1/2"})

    def test_flat_detail_sorts_keys(self):
        assert flat_detail({"b": 1, "a": "x"}) == "a=x;b=1"

    @settings(max_examples=300)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        want = json.dumps(jsonable(value), sort_keys=True, indent=2) + "\n"
        assert canonical_json(value) == want

    @pytest.mark.parametrize("value", [{1, 2}, {"a": [b"x"]}, [DEFAULT_P], object()])
    def test_rejects_what_json_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps(jsonable(value), sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            canonical_json(value)

    def test_leaves_no_garbage(self):
        # the encoder under json.dumps(indent=...) leaves reference cycles
        # on every call; canonical_json must leave nothing to collect
        payload = _tiny_report(passed=False).payload()
        payload["aggregate"]["stats"] = {"width": 0.25, "hi": F(7, 4), "rows": (1, 2, 3)}
        debug = gc.get_debug()
        gc.collect()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        try:
            canonical_json(payload)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
        assert garbage == []


def _tiny_report(passed: bool = True) -> Report:
    cfg = SweepConfig(suite="blocks", trials=2, seed=5)
    records = (
        make_record(0, True, {"length": 3}),
        make_record(1, passed, {"length": 4}),
    )
    failures = ()
    if not passed:
        failures = (
            {"trial": 1, "error": "boom", "detail": {"length": 4}, "instance": "1/2"},
        )
    return Report(cfg, records, failures, {"max": 4})


class TestReport:
    def test_payload_shape(self):
        rep = _tiny_report()
        payload = rep.payload()
        assert payload["version"] == 1
        assert payload["aggregate"] == {
            "trials": 2,
            "failures": 0,
            "pass": True,
            "stats": {"max": 4},
        }
        assert [r["trial"] for r in payload["records"]] == [0, 1]

    def test_json_bytes_stable(self):
        rep = _tiny_report()
        assert rep.to_json() == rep.to_json()
        assert rep.to_json().endswith("\n")

    def test_round_trip_through_loader(self):
        rep = _tiny_report(passed=False)
        payload = load_report_payload(rep.to_json())
        assert payload["aggregate"]["pass"] is False
        assert payload["failures"][0]["error"] == "boom"
        assert SweepConfig.from_echo(payload["config"]) == rep.config

    def test_csv_shape(self):
        rep = _tiny_report(passed=False)
        lines = rep.to_csv().splitlines()
        assert lines[0] == "trial,ok,digest,detail"
        assert lines[1].startswith("0,pass,")
        assert lines[2].startswith("1,FAIL,")
        assert lines[-1].startswith("aggregate,FAIL,")

    def test_rendered_dispatch(self):
        rep = _tiny_report()
        assert rep.rendered("csv") == rep.to_csv()
        assert rep.rendered("json") == rep.to_json()

    def test_loader_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_report_payload("[]")
        with pytest.raises(ValueError):
            load_report_payload(json.dumps({"version": 99, "config": {}}))

    def test_summarize_mentions_failures(self):
        text = summarize(_tiny_report(passed=False).payload())
        assert "1 failures" in text or "1 failure" in text
        assert "boom" in text
