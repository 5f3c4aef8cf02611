"""Matrix parsing, emission round-trips, and generators."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condspec import matrixio
from condspec.errors import ParseError
from condspec.matrixio import (
    FORMAT_CSV,
    FORMAT_JSON,
    FORMAT_MATRIX_MARKET,
    MAX_DIMENSION,
    detect_format,
    emit_matrix,
    generate,
    parse_matrix,
    write_matrix,
)
from condspec.numkernel import condition_number, spectral_norm


def random_matrix(n, seed):
    return generate("random", n, seed=seed)


# --- parsing ----------------------------------------------------------------

def test_json_bare_array():
    m = parse_matrix("[[1, 0], [0, -1]]")
    assert np.array_equal(m.entries, np.diag([1.0 + 0j, -1.0]))


def test_json_schema_with_pairs():
    text = '{"n": 2, "entries": [[[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, -4.0]]]}'
    m = parse_matrix(text)
    assert m.entries[0, 0] == 1 + 2j and m.entries[1, 1] == 3 - 4j


def test_json_string_entries():
    m = parse_matrix('[["1+2i", "0"], ["0", "3-4i"]]')
    assert m.entries[0, 0] == 1 + 2j and m.entries[1, 1] == 3 - 4j


def test_csv_complex_entries():
    m = parse_matrix("1+2i, 0\n0, 3-4i\n", fmt=FORMAT_CSV)
    assert m.entries[0, 0] == 1 + 2j and m.entries[1, 1] == 3 - 4j


def test_matrix_market_coordinate_complex_identity():
    text = ("%%MatrixMarket matrix coordinate complex general\n"
            "% comment line\n"
            "2 2 2\n"
            "1 1 1.0 0.0\n"
            "2 2 1.0 0.0\n")
    m = parse_matrix(text)
    assert np.array_equal(m.entries, np.eye(2, dtype=complex))


def test_matrix_market_array_is_column_major():
    text = ("%%MatrixMarket matrix array real general\n"
            "2 2\n1\n2\n3\n4\n")
    m = parse_matrix(text)
    assert np.array_equal(m.entries.real, np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_matrix_market_hermitian_mirror():
    text = ("%%MatrixMarket matrix coordinate complex hermitian\n"
            "2 2 2\n"
            "1 1 1.0 0.0\n"
            "2 1 2.0 3.0\n")
    m = parse_matrix(text)
    assert m.entries[0, 1] == 2 - 3j and m.entries[1, 0] == 2 + 3j


_LOWER = np.tril(np.arange(1, 10).reshape(3, 3) + 1j * np.arange(9).reshape(3, 3) - 4j)
_UPPER_FROM_LOWER = {"symmetric": lambda off: off.T, "hermitian": lambda off: off.conj().T,
                     "skew-symmetric": lambda off: -off.T}


@pytest.mark.parametrize("symmetry", sorted(_UPPER_FROM_LOWER))
@pytest.mark.parametrize("layout", ["array", "coordinate"])
def test_matrix_market_symmetric_mirrors(layout, symmetry):
    # The stored lower triangle (diagonal included) is mirrored into the upper one.
    # A skew-symmetric file stores the strictly lower triangle: its diagonal is 0.
    skew = symmetry == "skew-symmetric"
    lower = [(i, j) for j in range(3) for i in range(j + skew, 3)]
    if layout == "array":
        data = [f"{_LOWER[i, j].real} {_LOWER[i, j].imag}" for i, j in lower]
        size = "3 3"
    else:
        data = [f"{i + 1} {j + 1} {_LOWER[i, j].real} {_LOWER[i, j].imag}" for i, j in lower]
        size = f"3 3 {len(data)}"
    text = "\n".join([f"%%MatrixMarket matrix {layout} complex {symmetry}", size, *data]) + "\n"
    stored = np.tril(_LOWER, -skew)
    expected = stored + _UPPER_FROM_LOWER[symmetry](np.tril(_LOWER, -1))
    assert np.array_equal(parse_matrix(text).entries, expected)


def test_matrix_market_skew_symmetric_array_stores_strictly_lower():
    header = "%%MatrixMarket matrix array real skew-symmetric\n3 3\n"
    m = parse_matrix(header + "1\n2\n3\n")  # (2,1), (3,1), (3,2), column-major
    assert np.array_equal(m.entries.real, [[0, -1, -2], [1, 0, -3], [2, 3, 0]])
    # The lower triangle with its diagonal, 6 lines, is not this layout.
    with pytest.raises(ParseError, match="expected 3 data lines, found 6") as err:
        parse_matrix(header + "0\n1\n2\n0\n3\n0\n")
    assert err.value.line == 2


def test_matrix_market_skew_symmetric_coordinate_rejects_nonzero_diagonal():
    # A skew-symmetric coordinate file stores the strictly lower triangle,
    # as its array layout does: every diagonal entry, 0 included, is outside it.
    header = "%%MatrixMarket matrix coordinate complex skew-symmetric\n% comment\n3 3 3\n"
    m = parse_matrix(header + "2 1 1 0\n3 1 0 0\n3 2 0 2\n")
    assert np.array_equal(m.entries, [[0, -1, 0], [1, 0, -2j], [0, 2j, 0]])
    for diagonal in ("3 3 0 1e-300", "3 3 -0.5 0", "3 3 0 -0"):
        with pytest.raises(ParseError, match=r"index \(3, 3\) out of range \(a skew-symmetric "
                                             r"file stores i > j\)") as err:
            parse_matrix(header + f"2 1 1 0\n{diagonal}\n3 2 0 2\n")
        assert err.value.line == 5


@pytest.mark.parametrize("symmetry, data, line", [
    ("symmetric", "2 1 5\n2 2 1\n1 2 6", 5),  # (1, 2) is (2, 1)'s mirror
    ("symmetric", "1 2 5", 3),                 # alone, mirrored it would read [[0, 5], [5, 0]]
    ("hermitian", "1 1 2 0\n1 3 1 1", 4),
    ("skew-symmetric", "2 1 5\n1 1 0\n1 1 0", 4),
    ("skew-symmetric", "2 1 5\n1 2 5", 4),
])
def test_matrix_market_stored_triangle(symmetry, data, line):
    # The triangle the array layout reads: i >= j, and i > j when skew-symmetric.
    field = "complex" if symmetry == "hermitian" else "real"
    count = data.count("\n") + 1
    text = f"%%MatrixMarket matrix coordinate {field} {symmetry}\n3 3 {count}\n{data}\n"
    relation = ">" if symmetry == "skew-symmetric" else ">="
    with pytest.raises(ParseError, match=rf"out of range \(a {symmetry} file stores "
                                         rf"i {relation} j\)") as err:
        parse_matrix(text)
    assert err.value.line == line


@pytest.mark.parametrize("layout, head, index", [
    ("array", "1 1", ""), ("coordinate", "1 1 1", "1 1 ")])
def test_matrix_market_integer_field_reads_integers(layout, head, index):
    # An integer field's tokens are read with int, where a real field's are
    # read with float: a point, an exponent or an integer past float64 exits 2.
    text = f"%%MatrixMarket matrix {layout} {{}} general\n{head}\n% c\n{index}{{}}\n"
    assert parse_matrix(text.format("integer", "-7")).entries.tolist() == [[-7]]
    for token in ("2.5", "1e300", "1.0", "0x10", "1" + "0" * 400):
        with pytest.raises(ParseError, match=f"bad integer data '{token[:8]}") as err:
            parse_matrix(text.format("integer", token))
        assert err.value.line == 4
    assert parse_matrix(text.format("real", "2.5")).entries.tolist() == [[2.5]]


@pytest.mark.parametrize("header, size, data", [("array real symmetric", "3 2", "1\n2\n3\n4\n5"),
                                                ("coordinate real hermitian", "3 2 1", "3 1 1")])
def test_matrix_market_symmetric_must_be_square(header, size, data):
    with pytest.raises(ParseError, match="must be square"):
        parse_matrix(f"%%MatrixMarket matrix {header}\n{size}\n{data}\n")


@pytest.mark.parametrize("header, data, line", [
    ("array real general\n1 1", "1 9", 3),
    ("array complex general\n1 1", "1 2 3", 3),
    ("array complex general\n1 1", "1", 3),
    ("coordinate real general\n1 1 1", "1 1 5 6", 3),
    ("coordinate complex general\n1 1 1", "1 1 5", 3),
])
def test_matrix_market_data_line_holds_exactly_its_value_tokens(header, data, line):
    # One rule for both layouts: 1 value token (2 for complex) after the
    # coordinate layout's "i j", and no more.
    with pytest.raises(ParseError, match=r"numeric field\(s\)") as err:
        parse_matrix(f"%%MatrixMarket matrix {header}\n{data}\n")
    assert err.value.line == line


@pytest.mark.parametrize("layout, size, data, expected", [("array", "2 2", "1\n" * 3, 4),
                                                     ("coordinate", "2 2 2", "1 1 1\n" * 3, 2)])
def test_matrix_market_one_count_message_for_both_layouts(layout, size, data, expected):
    with pytest.raises(ParseError, match=f"expected {expected} data lines, found 3") as err:
        parse_matrix(f"%%MatrixMarket matrix {layout} real general\n{size}\n{data}")
    assert err.value.line == 2


@pytest.mark.parametrize("symmetry, data, position", [
    ("general", "1 1 5\n2 2 1\n1 1 6", r"\(1, 1\)"),
    ("hermitian", "2 1 5 1\n2 2 1 0\n2 1 5 1", r"\(2, 1\)"),
])
def test_matrix_market_sets_each_position_once(symmetry, data, position):
    field = "complex" if symmetry == "hermitian" else "real"
    text = f"%%MatrixMarket matrix coordinate {field} {symmetry}\n2 2 3\n{data}\n"
    with pytest.raises(ParseError, match=f"position {position} is set twice") as err:
        parse_matrix(text)
    assert err.value.line == 5


def test_malformed_json_reports_line():
    with pytest.raises(ParseError) as err:
        parse_matrix('[[1, 0],\n [0, oops]]', fmt=FORMAT_JSON)
    assert err.value.line == 2


def test_bad_csv_entry_reports_position():
    with pytest.raises(ParseError) as err:
        parse_matrix("1, 2\n3, abc\n", fmt=FORMAT_CSV)
    assert err.value.line == 2 and err.value.column == 2


@pytest.mark.parametrize("text, line", [
    ("%%MatrixMarket matrix coordinate real general\n2 2 x\n", 2),
    ("%%MatrixMarket matrix coordinate real general\n% note\n2 2 1\n1.5 1 3\n", 4),
    ("%%MatrixMarket matrix coordinate real general\n0 0 0\n", 2),
    ("%%MatrixMarket matrix coordinate real general\n-2 -2 0\n", 2),
    ("%%MatrixMarket matrix array real general\n2 two\n1\n2\n3\n4\n", 2),
    ("%%MatrixMarket matrix array real general\n0 0\n", 2),
])
def test_matrix_market_bad_integer_fields_report_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_matrix(text, fmt=FORMAT_MATRIX_MARKET)
    assert err.value.line == line


@pytest.mark.parametrize("size_line", ["100000 100000", "3 100000", "100000 3"])
@pytest.mark.parametrize("layout, nnz", [("array", ""), ("coordinate", " 0")])
def test_matrix_market_size_line_over_cap(layout, nnz, size_line):
    text = f"%%MatrixMarket matrix {layout} real general\n% c\n{size_line}{nnz}\n"
    with pytest.raises(ParseError, match="exceeds the configured maximum") as err:
        parse_matrix(text, fmt=FORMAT_MATRIX_MARKET)
    assert err.value.line == 3


def test_non_square_rejected():
    with pytest.raises(ParseError, match="square"):
        parse_matrix("[[1, 2, 3], [4, 5, 6]]")


@pytest.mark.parametrize("text, fmt, message", [
    ("1,2\n3\n", FORMAT_CSV, r"2 row\(s\) and row 2 of length 1"),
    ("[[1, 2], [3, 4], [5]]", FORMAT_JSON, r"3 row\(s\) and row 1 of length 2"),
    ("%%MatrixMarket matrix array real general\n1 2\n1\n2\n", FORMAT_MATRIX_MARKET,
     r"1 row\(s\) and row 1 of length 2"),
])
def test_non_square_names_the_first_row_that_differs(text, fmt, message):
    with pytest.raises(ParseError, match=f"matrix must be square, got {message}"):
        parse_matrix(text, fmt)


def test_dimension_cap():
    n = MAX_DIMENSION + 1
    with pytest.raises(ParseError, match=f"dimension {n} exceeds the configured maximum 512"):
        parse_matrix(json.dumps([[0] * n] * n))
    assert parse_matrix(json.dumps([[0] * (n - 1)] * (n - 1))).n == MAX_DIMENSION


def test_nonfinite_rejected():
    with pytest.raises(ParseError, match="finite"):
        parse_matrix("[[Infinity, 0], [0, 1]]", fmt=FORMAT_JSON)
    with pytest.raises(ParseError):  # textual infinities never parse as entries
        parse_matrix('[["inf", "0"], ["0", "1"]]')


def test_blank_text_is_csv_with_no_rows():
    assert detect_format(" \n") == FORMAT_CSV
    with pytest.raises(ParseError, match="no rows"):
        parse_matrix(" \n")


def test_json_cell_beyond_float64_names_the_entry():
    with pytest.raises(ParseError, match="row 2, entry 1"):
        parse_matrix(f"[[1, 0], [[0, {10**400}], 1]]", FORMAT_JSON)


def test_a_str_is_always_text(tmp_path, monkeypatch):
    # A file named like the text is never read in its place.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "1"
    path.write_text("5")
    assert parse_matrix("1").entries.tolist() == [[1]]
    assert parse_matrix(path).entries.tolist() == [[5]]
    with pytest.raises(ParseError, match="cannot parse complex entry"):
        parse_matrix(str(path))


def test_detect_format_prefers_the_extension():
    assert detect_format("[[1]]", Path("m.csv")) == FORMAT_CSV
    assert detect_format("1\n", Path("m.MTX")) == FORMAT_MATRIX_MARKET
    assert detect_format("[[1]]", Path("m.txt")) == FORMAT_JSON
    with pytest.raises(TypeError, match="from bytes"):
        parse_matrix(b"[[1]]")


# Cells of every JSON type, integers past the float64 range among them.
_numbers = st.one_of(st.integers(-10**400, 10**400), st.floats())
_cells = st.one_of(_numbers, st.text(max_size=6), st.lists(_numbers, max_size=3))
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _cells),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["n", "entries", "x"]), inner,
                                            max_size=3)),
    max_leaves=12)
_square_rows = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_cells, min_size=n, max_size=n), min_size=n, max_size=n))
_csv_tokens = st.one_of(st.sampled_from(["1", "-2.5e3", "1+2i", "3i", "1e999", "nan", "", "i"]),
                        st.text(max_size=4))
_csv_texts = st.lists(st.lists(_csv_tokens, min_size=1, max_size=3), max_size=3).map(
    lambda rows: "\n".join(",".join(row) for row in rows))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_json_values.map(json.dumps), _square_rows.map(json.dumps),
                 st.fixed_dictionaries({"n": _json_values, "entries": _square_rows}).map(json.dumps),
                 _csv_texts, st.text()),
       st.sampled_from([FORMAT_JSON, FORMAT_CSV, None]))
def test_parse_matrix_raises_only_parse_error(text, fmt):
    try:
        m = parse_matrix(text, fmt)
    except ParseError:
        return
    assert np.isfinite(m.entries).all()


_real_cells = st.one_of(st.floats(), st.integers(-2**70, 2**70), st.booleans(),
                       st.sampled_from([0.0, -0.0, 10**400]))
_numeric_rows = st.tuples(st.integers(1, 4), st.integers(1, 4), st.booleans()).flatmap(
    lambda shape: st.lists(st.lists(
        st.lists(_real_cells, min_size=2, max_size=2) if shape[2] else _real_cells,
        min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]))


def _json_entries(text):
    """The bytes of each parsed row (rows may differ in length), or the error."""
    try:
        return [np.array(row, dtype=np.complex128).tobytes() for row in matrixio._parse_json(text)]
    except ParseError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(st.one_of(_numeric_rows.map(json.dumps), _square_rows.map(json.dumps),
                 _json_values.map(json.dumps)))
def test_json_array_parse_matches_per_cell_parse(text):
    # All-numeric entries take one array conversion; the per-cell parse is
    # the reference: the same shape and bits (-0.0 included), or ParseError.
    fast = _json_entries(text)
    with mock.patch.object(matrixio, "_json_numeric_array", lambda rows: None):
        slow = _json_entries(text)
    if isinstance(slow, ParseError):
        assert isinstance(fast, ParseError) and str(fast) == str(slow)
    else:
        assert fast == slow


def test_json_pairs_keep_negative_zero():
    m = parse_matrix("[[[-0.0, -0.0], [1, 2]], [[3, -0.0], [0.0, 0]]]", fmt=FORMAT_JSON)
    assert np.signbit(m.entries.real).tolist() == [[True, False], [False, False]]
    assert np.signbit(m.entries.imag).tolist() == [[True, False], [True, False]]


def test_parse_from_path(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("[[2, 0], [0, 2]]")
    m = parse_matrix(p)
    assert m.entries[0, 0] == 2


def test_matrix_source_inline():
    assert np.array_equal(parse_matrix("1,0\n0,1\n", FORMAT_CSV).entries,
                          np.eye(2, dtype=complex))


# --- round trips ---------------------------------------------------------------

@pytest.mark.parametrize("fmt", [FORMAT_JSON, FORMAT_CSV, FORMAT_MATRIX_MARKET])
def test_emit_parse_round_trip_bitwise(fmt):
    # Bytes, not np.array_equal, which takes -0.0 for 0.0: a JSON writer
    # that printed -0.0 as "-0" read it back as the integer 0.
    signed_zeros = np.array([[complex(-0.0, 0.0), complex(2.0, -0.0)],
                             [complex(-0.0, -0.0), complex(-3.0, 1.0)]])
    for m in (random_matrix(4, seed=7).entries, signed_zeros):
        back = parse_matrix(emit_matrix(m, fmt), fmt=fmt)
        assert back.entries.tobytes() == m.tobytes()


def test_write_matrix_infers_format(tmp_path):
    m = random_matrix(3, seed=8)
    for name in ("a.json", "a.csv", "a.mtx"):
        path = tmp_path / name
        write_matrix(m, path)
        assert np.array_equal(parse_matrix(path).entries, m.entries)


# --- generators -------------------------------------------------------------------

def test_generate_jordan():
    j = generate("jordan", 3, value=0.0)
    assert np.array_equal(j.entries, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
    j9 = generate("jordan", 2, value=0.9)
    assert j9.entries[0, 0] == 0.9 and j9.entries[0, 1] == 1.0


def test_generate_diag():
    d = generate("diag", 2, values=[1, -1])
    assert np.array_equal(d.entries, np.diag([1.0 + 0j, -1.0]))


def test_generate_random_deterministic_and_in_unit_disk():
    a = generate("random", 4, seed=7)
    b = generate("random", 4, seed=7)
    assert np.array_equal(a.entries, b.entries)
    assert np.abs(a.entries).max() <= 1.0
    c = generate("random", 4, seed=8)
    assert not np.array_equal(a.entries, c.entries)


def test_generate_rotation_is_unitary():
    q = generate("rotation", 3, angle=0.7)
    assert condition_number(q) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(q) == pytest.approx(1.0, abs=1e-12)


def test_generate_validation():
    with pytest.raises(ValueError):
        generate("jordan", 0)
    with pytest.raises(ValueError):
        generate("diag", 2)
    with pytest.raises(ValueError):
        generate("unknown", 2)
