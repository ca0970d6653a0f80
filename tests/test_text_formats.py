"""Arbitrary text into every text parser: each returns or raises ValueError.

The three text formats (vector files, generator files, fraction
literals) and the report loader read outside input, so any other
exception would end a CLI command in a traceback instead of exit 2.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from trigauge.core import TriVector
from trigauge.exact import format_fraction, parse_fraction
from trigauge.generators import enumerate_grid_seqs, parse_seq_file, seq_file_text
from trigauge.report import Report, SweepConfig, TrialRecord, load_report_payload


def tokens_text(tokens):
    """Text assembled from a format's own tokens, which reaches deeper
    into a parser than uniform characters do."""
    return st.lists(st.sampled_from(tokens), max_size=16).map("".join)


NUMBER_TOKENS = ["0", "1", "7", "99999", "-", "+", ".", "/", "e", "E", "_", " ", "e4400", "e-9000", "x"]
fraction_text = st.one_of(st.text(max_size=30), tokens_text(NUMBER_TOKENS))
vector_text = st.one_of(
    st.text(max_size=60),
    tokens_text(["trivector 1", "\n", "#", " ", "0", "1", "2", "3", "-1", "1/0", "1/2", "9e9999"]),
)
seq_text = st.one_of(
    st.text(max_size=60),
    tokens_text(["b:", "\n", "#", " ", "0", "1", "2", "3", "-1", "x", "b: 1 2", "b: 0 0 3"]),
)

# a valid report whose fields the fuzzing below replaces one at a time
VALID_REPORT = Report(
    SweepConfig(suite="blocks", trials=1),
    (TrialRecord(0, True, {"k": 1}, "0" * 64),),
    (),
    {"mean": "1/2"},
).payload()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def report_text(draw):
    payload = json.loads(json.dumps(VALID_REPORT))
    target = payload
    path = draw(st.sampled_from([("version",), ("config",), ("config", "seed"), ("config", "p"),
                                 ("aggregate",), ("aggregate", "stats"), ("records",),
                                 ("records", 0), ("records", 0, "digest"), ("failures",)]))
    for step in path[:-1]:
        target = target[step]
    if draw(st.booleans()):
        target[path[-1]] = draw(json_values)
    else:
        del target[path[-1]]
    return json.dumps(payload)


def returns_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:  # includes json.JSONDecodeError
        pass


@settings(max_examples=150)
@given(fraction_text)
def test_parse_fraction_total(text):
    returns_or_value_error(parse_fraction, text)


@settings(max_examples=150)
@given(vector_text)
def test_vector_text_total(text):
    returns_or_value_error(TriVector.from_text, text)


@settings(max_examples=150)
@given(seq_text)
def test_seq_file_total(text):
    returns_or_value_error(parse_seq_file, text)


@settings(max_examples=150)
@given(st.one_of(st.text(max_size=60), st.builds(json.dumps, json_values), report_text()))
def test_report_loader_total(text):
    returns_or_value_error(load_report_payload, text)


@given(st.fractions(max_denominator=10**6))
def test_fraction_round_trip(f):
    assert parse_fraction(format_fraction(f)) == f


tri_cells = st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda c: c[0] >= c[1])


@given(st.dictionaries(tri_cells, st.fractions(min_value=-5, max_value=5), max_size=8).map(TriVector))
def test_vector_text_round_trip(x):
    assert TriVector.from_text(x.to_text()) == x


@given(st.lists(st.sampled_from(enumerate_grid_seqs(4)), max_size=6))
def test_seq_file_round_trip(seqs):
    assert parse_seq_file(seq_file_text(seqs)) == seqs


def test_valid_report_loads():
    assert load_report_payload(json.dumps(VALID_REPORT)) == json.loads(json.dumps(VALID_REPORT))
