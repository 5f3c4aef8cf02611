"""JSON emission and parsing for every JSON file condspec writes or reads.

Floats are written by the standard encoder as their repr, the shortest
decimal text that reads back to the same double: every float round-trips
bit for bit, -0.0 keeps its sign, and 2.0 stays a float rather than the
integer 2.  Non-finite values use the Infinity/NaN tokens the json module
both emits and parses.  numpy values are written as the Python values they
hold, and complex numbers as [re, im] pairs.
"""

from __future__ import annotations

import json

import numpy as np


def _plain(obj):
    """The encoder's hook for what JSON has no type for: complex as [re, im],
    numpy arrays and scalars as the lists and Python values they hold."""
    if isinstance(obj, complex):  # numpy's complex128 is a complex
        return [obj.real, obj.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, default=_plain) + "\n"


def dump(obj, fp) -> None:
    fp.write(dumps(obj))


def loads(text: str):
    """json.loads; nesting too deep for the parser raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
