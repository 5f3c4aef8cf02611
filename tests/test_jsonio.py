"""The JSON writer: exact floats, numpy values and complex numbers."""

import math

import numpy as np
import pytest

from condspec import jsonio


@pytest.mark.parametrize("x", [-0.0, 2.0, 0.1, 5e-324, 1.7976931348623157e308,
                               math.inf, -math.inf])
def test_float_round_trips_bits_and_type(x):
    back = jsonio.loads(jsonio.dumps(x))
    assert type(back) is float
    assert np.float64(back).tobytes() == np.float64(x).tobytes()


def test_nan_stays_nan():
    back = jsonio.loads(jsonio.dumps([math.nan]))
    assert type(back[0]) is float and math.isnan(back[0])


def test_numpy_values_and_complex_encode_as_plain_values():
    obj = {"b": np.bool_(True), "i": np.int64(-7), "f": np.float32(0.5),
           "c": np.complex128(complex(1.5, -0.0)),
           "a": np.array([[1 + 2j, complex(-0.0, 3.0)]])}
    back = jsonio.loads(jsonio.dumps(obj))
    assert back == {"b": True, "i": -7, "f": 0.5, "c": [1.5, -0.0],
                    "a": [[[1.0, 2.0], [-0.0, 3.0]]]}
    assert type(back["b"]) is bool and type(back["i"]) is int
    assert math.copysign(1.0, back["c"][1]) == -1.0
    assert math.copysign(1.0, back["a"][0][1][0]) == -1.0


@pytest.mark.parametrize("obj", [object(), {1, 2}, b"bytes"])
def test_other_objects_raise_type_error_naming_their_type(obj):
    with pytest.raises(TypeError, match=f"cannot serialize {type(obj).__name__} to JSON"):
        jsonio.dumps({"x": [obj]})

