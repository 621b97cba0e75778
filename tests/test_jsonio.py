"""Canonical JSON serialization and atomic writes."""

import json
import math
import os

import pytest

from mono.errors import PreconditionError
from mono.jsonio import atomic_write_text, canonical_json, format_float


def test_float_formatting():
    assert format_float(1.0) == "1.0"
    assert format_float(-0.5) == "-0.5"
    assert format_float(0.0) == "0.0"
    assert format_float(math.pi) == "3.1415926535897931"
    assert format_float(1e-9) == "1.0000000000000001e-09"
    # shortest 17-significant-digit form survives a parse round trip
    for x in (0.1, 2.0 / 3.0, 1e300, -4.9e-324):
        assert float(format_float(x)) == x


def test_canonical_json_deterministic():
    obj = {"b": [1, 2.5, None, True], "a": {"y": 0.1, "x": "s"}}
    one = canonical_json(obj)
    two = canonical_json({"a": {"x": "s", "y": 0.1}, "b": [1, 2.5, None, True]})
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == obj
    # keys appear sorted in the byte stream
    assert one.index('"a"') < one.index('"b"')


def test_ints_stay_ints():
    text = canonical_json({"n": 3, "x": 3.0})
    parsed = json.loads(text)
    assert isinstance(parsed["n"], int)
    assert isinstance(parsed["x"], float)
    assert '"x": 3.0' in text


def test_complex_is_an_re_im_pair():
    for z in (1 + 2j, complex(-0.0, 0.5), complex(3.0, -0.0)):
        assert canonical_json({"z": z}) == canonical_json({"z": [z.real, z.imag]})
    assert canonical_json(complex(-0.0, -0.0)) == "[\n  -0.0,\n  -0.0\n]\n"


def test_unsupported_types_rejected():
    for z in (complex(math.nan, 1.0), complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(PreconditionError, match="non-finite"):
            canonical_json({"z": z})
    with pytest.raises(PreconditionError):
        canonical_json({1: "non-string key"})
    with pytest.raises(PreconditionError):
        canonical_json({"f": float("nan")})


def test_atomic_write(tmp_path):
    target = tmp_path / "out.json"
    text = canonical_json({"k": 1.5})
    atomic_write_text(str(target), text)
    assert target.read_text() == text
    # no temp droppings left behind
    assert os.listdir(tmp_path) == ["out.json"]
    # overwrite in place
    atomic_write_text(str(target), "{}\n")
    assert target.read_text() == "{}\n"
