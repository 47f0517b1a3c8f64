"""Stable text rendering for reports and traces.

All floats are rendered with 17 significant digits (lossless for float64) so
that identical results produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import numbers

INDENT = 2


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot render non-finite value {x!r}")
    return format(float(x), ".17g")


def to_json(value) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats."""
    out: list[str] = []
    _emit(value, out, 0)
    return "".join(out)


def _emit(value, out: list[str], level: int) -> None:
    pad = " " * (INDENT * (level + 1))
    close_pad = " " * (INDENT * level)
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, numbers.Integral):
        out.append(str(int(value)))
    elif isinstance(value, numbers.Real):
        out.append(format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}{json.dumps(key)}: ")
            _emit(item, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad)
            _emit(item, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


TRACE_HEADER = "event,time,vertex,x_center,max_pair_dist"


def trace_row(event: int, time: float, vertex: int, x_center: float, max_pair_dist: float) -> str:
    return ",".join(
        (str(event), format_float(time), str(vertex), format_float(x_center), format_float(max_pair_dist))
    )
