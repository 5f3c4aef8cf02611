"""Deterministic JSON emission with 17-significant-digit floats.

The standard json module formats floats with repr(); file formats here pin
"%.17g" instead so every float round-trips and the byte stream is stable.
Non-finite values use the same Infinity/NaN tokens the json module both
emits and parses.  Complex numbers are written as [re, im] pairs.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def _encode(obj, out, indent, depth):
    pad = "" if indent is None else "\n" + " " * (indent * depth)
    pad_in = "" if indent is None else "\n" + " " * (indent * (depth + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for k, (key, val) in enumerate(obj.items()):
            if k:
                out.append(",")
            out.append(pad_in)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _encode(val, out, indent, depth + 1)
        out.append(pad)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[")
        for k, val in enumerate(seq):
            if k:
                out.append(",")
            out.append(pad_in)
            _encode(val, out, indent, depth + 1)
        out.append(pad)
        out.append("]")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        _encode([c.real, c.imag], out, indent, depth)
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj, indent: int | None = 2) -> str:
    out: list[str] = []
    _encode(obj, out, indent, 0)
    return "".join(out) + ("\n" if indent is not None else "")


def dump(obj, fp, indent: int | None = 2) -> None:
    fp.write(dumps(obj, indent=indent))


def loads(text: str):
    """json.loads; nesting too deep for the parser raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
