"""Matrix ingestion (Matrix Market, JSON, CSV), emission, and generators.

Complex entries are written "a+bi" in CSV, [re, im] pairs in JSON, and
"re im" column pairs in Matrix Market files.  CSV and Matrix Market write
floats with "%.17g", JSON with repr, so a parse of a file in any of the
three reproduces the entries bit for bit, -0.0 included.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import jsonio
from .errors import ParseError
from .numkernel import ComplexMatrix, as_matrix

# Largest matrix dimension parse_matrix accepts.
MAX_DIMENSION = 512

FORMAT_MATRIX_MARKET = "matrix-market"
FORMAT_JSON = "json"
FORMAT_CSV = "csv"

_EXTENSIONS = {".mtx": FORMAT_MATRIX_MARKET, ".mm": FORMAT_MATRIX_MARKET,
               ".json": FORMAT_JSON, ".csv": FORMAT_CSV}


def detect_format(text: str, path: Path | None = None) -> str:
    """The format the file extension names, else the one the text looks like."""
    ext = path.suffix.lower() if path is not None else ""
    if ext in _EXTENSIONS:
        return _EXTENSIONS[ext]
    text = text.lstrip()
    if text.startswith("%%MatrixMarket"):
        return FORMAT_MATRIX_MARKET
    if text.startswith(("{", "[")):
        return FORMAT_JSON
    return FORMAT_CSV


def parse_matrix(source: Path | str, fmt: str | None = None) -> ComplexMatrix:
    """Parse a square complex matrix from a file (a Path) or from text (a str)."""
    if isinstance(source, Path):
        text, path = source.read_text(), source
    elif isinstance(source, str):
        text, path = source, None
    else:
        raise TypeError(f"cannot parse a matrix from {type(source).__name__}")
    fmt = fmt or detect_format(text, path)
    if fmt not in READERS:
        raise ParseError(f"unknown matrix format {fmt!r}")
    entries = READERS[fmt](text)
    rows = len(entries)
    if rows == 0:
        raise ParseError("matrix has no rows")
    for i, row in enumerate(entries, start=1):
        if len(row) != rows:
            raise ParseError(f"matrix must be square, got {rows} row(s) and row {i} "
                             f"of length {len(row)}")
    if rows > MAX_DIMENSION:
        raise ParseError(f"matrix dimension {rows} exceeds the configured maximum {MAX_DIMENSION}")
    a = np.asarray(entries, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ParseError("matrix entries must be finite")
    return ComplexMatrix(a)


# -- JSON ------------------------------------------------------------------

def _parse_json(text: str) -> np.ndarray | list[list[complex]]:
    try:
        obj = jsonio.loads(text)
    except ValueError as exc:  # a JSONDecodeError also knows where
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                         getattr(exc, "lineno", None), getattr(exc, "colno", None)) from exc
    rows = obj
    if isinstance(obj, dict):
        if "entries" not in obj:
            raise ParseError("JSON matrix object needs an 'entries' field")
        rows = obj["entries"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError("JSON matrix must be a list of rows")
    n = obj.get("n") if isinstance(obj, dict) else None
    if n is not None and n != len(rows):
        raise ParseError(f"declared n = {n} but {len(rows)} rows present")
    fast = _json_numeric_array(rows)
    return fast if fast is not None else _json_cells(rows)


def _json_cells(rows: list) -> list[list[complex]]:
    """One cell at a time; names the row and entry of the first bad cell."""
    return [[_json_cell(cell, i, j) for j, cell in enumerate(row, start=1)]
            for i, row in enumerate(rows, start=1)]


def _json_numeric_array(rows: list) -> np.ndarray | None:
    """The entries in one conversion when every cell is a JSON number, or
    every cell an [re, im] pair of numbers; None otherwise (the per-cell
    parse then reports what is wrong).  .real and .imag are set directly:
    re + 1j*im would turn an imaginary -0.0 into +0.0."""
    try:
        a = np.array(rows)
    except (ValueError, OverflowError):  # ragged, or an integer past float64
        return None
    if a.dtype.kind not in "fi" or not (a.ndim == 2 or (a.ndim == 3 and a.shape[2] == 2)):
        return None
    out = np.empty(a.shape[:2], dtype=np.complex128)
    out.real, out.imag = (a[..., 0], a[..., 1]) if a.ndim == 3 else (a, 0.0)
    return out


def _json_cell(cell, i, j) -> complex:
    try:
        if isinstance(cell, (int, float)):
            return complex(cell)
        if isinstance(cell, list) and len(cell) == 2 \
                and all(isinstance(x, (int, float)) for x in cell):
            return complex(cell[0], cell[1])
    except OverflowError:
        raise ParseError(f"row {i}, entry {j}: integer too large for float64") from None
    if isinstance(cell, str):
        return parse_complex_token(cell, i, j)
    raise ParseError(f"row {i}, entry {j}: cannot read {cell!r} as a complex number")


# -- CSV -------------------------------------------------------------------

def parse_complex_token(token: str, line: int = 1, column: int = 1) -> complex:
    """Parse "a+bi" notation (also bare reals and "bi")."""
    t = token.strip()
    if not t:
        raise ParseError("empty entry", line=line, column=column)
    # python's parser wants j and no embedded whitespace
    norm = t.replace("i", "j").replace(" ", "")
    try:
        return complex(norm)
    except ValueError:
        raise ParseError(f"cannot parse complex entry {token!r}", line=line, column=column)


def _parse_csv(text: str) -> list[list[complex]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rows.append([parse_complex_token(tok, lineno, col)
                     for col, tok in enumerate(line.split(","), start=1)])
    return rows


# -- Matrix Market ---------------------------------------------------------

def _parse_matrix_market(text: str) -> np.ndarray:
    """`array` gives each data line its (i, j) in column-major order, `coordinate`
    reads it from the line; then one rule: a position in the stored triangle,
    set once, and `width` value tokens (ints for an `integer` field)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket header", line=1)
    header = lines[0].split()
    if len(header) != 5 or header[1].lower() != "matrix":
        raise ParseError(f"bad Matrix Market header: {lines[0]!r}", line=1)
    layout, field, symmetry = (h.lower() for h in header[2:5])
    if layout not in ("array", "coordinate"):
        raise ParseError(f"unsupported layout {layout!r}", line=1)
    if field not in ("real", "complex", "integer"):
        raise ParseError(f"unsupported field {field!r} (need real or complex)", line=1)
    if symmetry not in ("general", "symmetric", "hermitian", "skew-symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)

    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2)
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ParseError("missing size line", line=len(lines))
    (size_lineno, size_line), data = body[0], body[1:]
    sizes = size_line.split()

    def to_int(token, lineno, minimum=None):
        try:
            v = int(token)
        except ValueError:
            raise ParseError(f"bad integer {token!r}", line=lineno) from None
        if minimum is not None and v < minimum:
            raise ParseError(f"expected an integer >= {minimum}, got {v}", line=lineno)
        return v

    coordinate = layout == "coordinate"
    if len(sizes) != 2 + coordinate:
        raise ParseError("coordinate size line needs 'rows cols nnz'" if coordinate
                         else "array size line needs 'rows cols'", line=size_lineno)
    nrow, ncol, *nnz = (to_int(t, size_lineno, m) for t, m in zip(sizes, (1, 1, 0)))
    # before anything is allocated for the declared size
    if max(nrow, ncol) > MAX_DIMENSION:
        raise ParseError(f"matrix dimension {max(nrow, ncol)} exceeds the configured "
                         f"maximum {MAX_DIMENSION}", line=size_lineno)
    if symmetry != "general" and nrow != ncol:  # the mirror would index past the array
        raise ParseError(f"a {symmetry} matrix must be square, got {nrow} x {ncol}",
                         line=size_lineno)
    skew = symmetry == "skew-symmetric"  # its zero diagonal is not stored
    triangle = ("" if symmetry == "general"
                else f" (a {symmetry} file stores i {'>' if skew else '>='} j)")

    def stored(i, j):  # in the matrix and in the triangle a file of this symmetry holds
        return 0 <= i < nrow and 0 <= j < ncol and (symmetry == "general" or i >= j + skew)
    coords = None if coordinate else [(i, j) for j in range(ncol) for i in range(nrow)
                                      if stored(i, j)]
    count = nnz[0] if coordinate else len(coords)
    if len(data) != count:
        raise ParseError(f"expected {count} data lines, found {len(data)}", line=size_lineno)

    width = 2 if field == "complex" else 1
    a = np.zeros((nrow, ncol), dtype=np.complex128)
    # the entry (j, i) implied by a stored (i, j) = v, i != j
    mirror = {"symmetric": lambda v: v, "hermitian": complex.conjugate,
              "skew-symmetric": lambda v: -v}.get(symmetry)
    filled = set()
    for k, (lineno, ln) in enumerate(data):
        parts = ln.split()
        if len(parts) != 2 * coordinate + width:
            raise ParseError(f"expected '{'i j ' * coordinate}value' with {width} numeric "
                             "field(s)", line=lineno)
        if coordinate:
            i, j = to_int(parts[0], lineno) - 1, to_int(parts[1], lineno) - 1
            if not stored(i, j):
                raise ParseError(f"index ({i + 1}, {j + 1}) out of range{triangle}", line=lineno)
            parts = parts[2:]
        else:
            i, j = coords[k]
        try:
            v = complex(*map(int if field == "integer" else float, parts))
        except (ValueError, OverflowError):  # OverflowError: an integer past float64
            raise ParseError(f"bad {field} data {' '.join(parts)!r}", line=lineno) from None
        if (i, j) in filled:  # a mirror lands outside the stored triangle, on no stored position
            raise ParseError(f"position ({i + 1}, {j + 1}) is set twice", line=lineno)
        filled.add((i, j))
        a[i, j] = v
        if mirror and i != j:
            a[j, i] = mirror(v)
    return a


# The reader of each format parse_matrix accepts; cli's --format choices.
READERS = {FORMAT_JSON: _parse_json, FORMAT_CSV: _parse_csv,
           FORMAT_MATRIX_MARKET: _parse_matrix_market}


# -- Emission ---------------------------------------------------------------

def emit_matrix(M, fmt: str = FORMAT_JSON) -> str:
    """Serialize M; "%.17g" floats in CSV and Matrix Market, repr in JSON, so
    parse_matrix reads back every entry bit for bit, -0.0 included."""
    a = as_matrix(M).entries
    if fmt == FORMAT_JSON:
        obj = {"n": a.shape[0],
               "entries": [[[c.real, c.imag] for c in row] for row in a.tolist()]}
        return jsonio.dumps(obj)
    if fmt == FORMAT_CSV:
        lines = []
        for row in a:
            lines.append(",".join("%.17g%+.17gi" % (c.real, c.imag) for c in row))
        return "\n".join(lines) + "\n"
    if fmt == FORMAT_MATRIX_MARKET:
        n = a.shape[0]
        lines = ["%%MatrixMarket matrix array complex general", f"{n} {n}"]
        for j in range(n):
            for i in range(n):
                lines.append("%.17g %.17g" % (a[i, j].real, a[i, j].imag))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown matrix format {fmt!r}")


def write_matrix(M, path, fmt: str | None = None) -> None:
    p = Path(path)
    if fmt is None:
        fmt = _EXTENSIONS.get(p.suffix.lower(), FORMAT_JSON)
    p.write_text(emit_matrix(M, fmt))


# -- Generators --------------------------------------------------------------

def generate(kind: str, n: int = 2, *, value: complex = 0.0, values=None,
             angle: float = 0.5, seed: int = 0) -> ComplexMatrix:
    """Deterministic example matrices.

    jordan: single Jordan block J_n(value); diag: diagonal of `values`;
    random: entries drawn uniformly from the complex unit disk (fixed
    seed => identical matrix); rotation: real rotation by `angle` in the
    first coordinate plane (unitary, condition number 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "jordan":
        a = np.eye(n, dtype=np.complex128) * complex(value)
        a += np.diag(np.ones(n - 1), 1)
        return ComplexMatrix(a)
    if kind == "diag":
        if values is None:
            raise ValueError("diag generator needs `values`")
        vals = np.asarray([complex(v) for v in values], dtype=np.complex128)
        return ComplexMatrix(np.diag(vals))
    if kind == "random":
        rng = np.random.default_rng(seed)
        r = np.sqrt(rng.uniform(size=(n, n)))
        th = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))
        return ComplexMatrix(r * np.exp(1j * th))
    if kind == "rotation":
        a = np.eye(n, dtype=np.complex128)
        if n >= 2:
            c, s = np.cos(angle), np.sin(angle)
            a[0, 0] = c
            a[0, 1] = -s
            a[1, 0] = s
            a[1, 1] = c
        return ComplexMatrix(a)
    raise ValueError(f"unknown generator kind {kind!r}")
