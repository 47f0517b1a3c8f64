import json
import math

import pytest

from hkc.render import TRACE_HEADER, format_float, to_json, trace_row


def test_floats_render_17_significant_digits_and_round_trip():
    values = [1 / 6, 0.1, 0.75, 1e-12, 123456.789, 2.0, 1e300, -0.25]
    for x in values:
        text = format_float(x)
        assert float(text) == x  # lossless
    assert format_float(1 / 6) == "0.16666666666666666"
    assert format_float(0.1) == "0.10000000000000001"


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(math.inf)


def test_to_json_structures_parse_back():
    doc = {
        "a": 1,
        "b": [1.5, None, True, False],
        "c": {"nested": "text with \"quotes\""},
        "d": [],
        "e": {},
    }
    text = to_json(doc)
    assert json.loads(text) == doc


def test_to_json_preserves_key_order():
    text = to_json({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_json({"x": object()})
    with pytest.raises(TypeError, match="JSON object keys must be strings, got 1"):
        to_json({1: 2})


def test_trace_row_format():
    assert TRACE_HEADER == "event,time,vertex,x_center,max_pair_dist"
    row = trace_row(3, 0.5, 1, 1.25, 0.125)
    assert row == "3,0.5,1,1.25,0.125"
    assert len(row.split(",")) == 5
