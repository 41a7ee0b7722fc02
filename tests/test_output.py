"""Deterministic serialization: float formatting, JSON, CSV."""

import math

import pytest

from vwave.output import _escape, dumps_json, format_float, render_csv


def test_format_float_17_digits_roundtrip():
    for x in (1.0, -0.125, math.pi, 1e-300, 2.0 / 3.0):
        assert float(format_float(x)) == x


def test_format_float_rejects_nonfinite():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_json_sorted_keys_and_trailing_newline():
    text = dumps_json({"b": 1, "a": [True, None, "x"]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("}\n")


def test_json_deterministic():
    obj = {"y": [1.5, {"k": 2}], "x": "s"}
    assert dumps_json(obj) == dumps_json(dict(reversed(list(obj.items()))))


def test_json_empty_object():
    assert dumps_json({}) == "{}\n"


def test_json_rejects_values_it_cannot_serialize():
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps_json({"a": object()})


def test_json_rejects_non_string_keys():
    with pytest.raises(TypeError):
        dumps_json({1: "a"})


def test_json_parses_back():
    import json

    obj = {"a": [0.1, -2.0, 3], "b": {"c": True, "d": None}, "e": "t\"x"}
    assert json.loads(dumps_json(obj)) == obj


@pytest.mark.parametrize("s", [
    "", "plain", 'say "hi"', "back\\slash", "\x00\x01\x1f\x7f\b\f\n\r\t",
    "r/r_o ≥ 1.5 · Ψ", "é\u2028\u2029", "\ud800 lone", "😀",
])
def test_escape_matches_json_dumps(s):
    import json

    assert _escape(s) == json.dumps(s, ensure_ascii=False)


def test_csv_lf_endings_and_header():
    text = render_csv(["a", "b"], [[1, 2.5], ["x", -0.5]])
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,2.5"
    assert text.endswith("\n")
