"""The CLI's input reader returns what ``json.loads`` returns, value for
value: the same tree, every int and float type for type and bit for bit,
and on bad input the same exception with the same message."""

import json

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import cli
from greenlab.cli import _loads, main


def same(a, b) -> bool:
    """a and b are the same JSON value: equal types, ints exactly, floats
    by their bits (``float.hex`` tells -0.0 from 0.0 and keeps NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def outcome(read, text):
    try:
        return "value", read(text)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def assert_reads_as_json(text):
    got, want = outcome(_loads, text), outcome(json.loads, text)
    if want[0] == "value":
        assert got[0] == "value" and same(got[1], want[1]), text
    else:
        assert got == want, text


_WS = st.text(alphabet=" \t\n\r", max_size=3)
_NUMBERS = st.one_of(
    st.integers().map(str),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70).map(str),
    st.floats().map(json.dumps),  # NaN, Infinity and -Infinity included
    st.from_regex(r"-?(0|[1-9][0-9]{0,25})(\.[0-9]{1,25})?([eE][-+]?[0-9]{1,3})?",
                  fullmatch=True),
)
_STRINGS = st.one_of(st.text(max_size=6).map(json.dumps),
                     st.sampled_from(['"[1, 2]"', '"]"', '"[-1e5,"']))
_SCALARS = st.one_of(_NUMBERS, _STRINGS, st.sampled_from(["null", "true", "false"]))


def _pad(tokens):
    return st.tuples(_WS, tokens, _WS).map("".join)


def _array(items):
    return st.tuples(st.lists(items, max_size=6), _WS).map(
        lambda t: "[" + (",".join(t[0]) or t[1]) + "]")


def _object(values):
    return st.tuples(st.lists(st.tuples(_pad(_STRINGS), values), max_size=4), _WS).map(
        lambda t: "{" + (",".join(f"{k}:{v}" for k, v in t[0]) or t[1]) + "}")


_DOCUMENTS = st.recursive(
    _pad(_SCALARS),
    lambda inner: _pad(st.one_of(_array(inner), _object(inner), _array(_pad(_NUMBERS)))),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_random_documents_read_as_json_reads_them(text):
    assert_reads_as_json(text)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="-+.0123456789eE \t\n\r,", max_size=24))
def test_any_text_of_number_characters_reads_as_json_reads_it(body):
    """Texts over the characters of an array of numbers: most of it malformed."""
    assert_reads_as_json("[" + body + "]")


@pytest.mark.parametrize("text", [
    "[1E400, 0.5]",
    "[1e-400]",
    "[-0.0, -0, 0]",
    "[18446744073709551616, 1]",
    "[-9223372036854775809]",
    "[100000000000000000000000, 0.5]",
    "[9223372036854775807, -9223372036854775808, 9223372036854775808]",
    "[4611686018427387904, 0.5]",
    "[1e308, 1.7e308]",
    "[NaN, 1]",
    "[Infinity, -Infinity]",
    "[]",
    "[ \t\n\r]",
    '{"s": "[1, 2]"}',
    "[" * 400 + "]" * 400,
    "[01]",
    "[.5]",
    "[1.]",
    "[+1]",
    "[1,\f2]",
    "[1,]",
    "[1 2]",
    "\ufeff[1]",
    "",
    "[1] x",
    "[1" + "0" * 5000 + "]",
    # orjson reads these slices too: every item must be a number or a bool
    "[true, false, 1]",
    "[null]",
    "[null, 1]",
    '["a", "b"]',
    '[{"a": 1}]',
    "[{}]",
    # a "]" or "[" inside a string
    '["]"]',
    '[1, "x]", 2]',
    '["[", 1]',
    # no "]" after the "[", or a "[" before it
    "[1, 2",
    "[ ]",
    "[[1, 2], [], [3.5]]",
    # Python's scanner reads any Unicode digit as a digit, json's does not
    '{"a": 1\u0663}',
    "[1\u0663]",
    '["\u00e9", 1.5]',
])
def test_edge_cases_read_as_json_reads_them(text):
    assert_reads_as_json(text)


def test_doubles_read_bit_for_bit():
    """10^5 random bit patterns and 10^5 uniform draws, each written by
    ``repr`` and at a random precision from 1 to 26 digits, read by orjson
    alone (the fast path, whatever the magnitude) and by the reader."""
    rng = np.random.default_rng(20210801)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    doubles = np.concatenate([bits.view(np.float64), rng.uniform(-1.0, 1.0, 100_000)])
    doubles = doubles[np.isfinite(doubles)].tolist()
    digits = rng.integers(1, 27, size=len(doubles)).tolist()
    for texts in ([repr(x) for x in doubles],
                  [f"{x:.{d - 1}e}" for x, d in zip(doubles, digits)]):
        text = "[" + ",".join(texts) + "]"
        want = [x.hex() for x in json.loads(text)]
        assert [x.hex() for x in orjson.loads(text)] == want
        assert [x.hex() for x in _loads(text)] == want


@pytest.mark.parametrize("text", [
    # past the hypot bound: floats of every size, kept from orjson
    "[" + ",".join(repr(10.0 ** e) for e in range(17, 301)) + "]",
    "[" + ",".join(repr(-1.5 * 10.0 ** e) for e in range(17, 301, 7)) + ", 3]",
    "[1e17, 1E300, 12345678901234567890.5, 1234567890123456789e2, 0.1234567890123456789]",
    # integers of 19 and 20 digits, 2**63 - 1, 2**63 and 2**64, either sign
    "[1000000000000000000, -1000000000000000000, 9999999999999999999]",
    "[10000000000000000000, -10000000000000000000, 99999999999999999999]",
    "[9223372036854775807, 9223372036854775808, 18446744073709551616]",
    "[-9223372036854775807, -9223372036854775808, -18446744073709551616]",
    "[1e300, 9223372036854775808]",
    "[1e300, 18446744073709551616, 0.5]",
    "[1e300, -9223372036854775809]",
    "[1e300, 1e-00000000000000000005]",
    # past the hypot bound with integer tokens of 19+ digits: ints stay ints
    "[9223372036854775807, 18446744073709551615, -9223372036854775807, 1.8e19]",
])
def test_large_entries_read_as_json_reads_them(text):
    assert_reads_as_json(text)


def test_a_row_of_large_floats_is_read_by_orjson_alone(monkeypatch):
    # 1000 floats near 1e19 (far past the hypot bound, no integer token):
    # read with no call to the pure-Python JSONArray
    rng = np.random.default_rng(19)
    row = (rng.uniform(0.5, 1.5, 1000) * 1e19).tolist()
    text = json.dumps({"values": row})
    calls = []
    slow = json.decoder.JSONArray
    monkeypatch.setattr(json.decoder, "JSONArray", lambda *a: calls.append(1) or slow(*a))
    assert same(_loads(text), json.loads(text))
    assert not calls


def test_a_valid_document_never_reaches_json_loads(tmp_path, monkeypatch):
    n = 30
    rng = np.random.default_rng(0)
    problem = {"kernel": {"variant": "matrix", "values": rng.uniform(0.1, 1.0, (n, n)).tolist()},
               "sigma": {"variant": "atomic", "sites": list(range(n)),
                         "weights": rng.uniform(0.0, 1.0 / n, n).tolist()},
               "q": 0.5}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem, indent=1))
    arrays = []
    real_orjson_loads = orjson.loads

    def orjson_loads(text):
        arrays.append(text)
        return real_orjson_loads(text)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads read a valid document")

    monkeypatch.setattr(cli.orjson, "loads", orjson_loads)
    monkeypatch.setattr(cli.json, "loads", refuse)
    assert main(["solve", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert len(arrays) == n + 2  # every kernel row, the sites and the weights
