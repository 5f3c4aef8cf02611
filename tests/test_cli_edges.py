"""The CLI's input edge, read from `cli.INT_RANGES`: each integer flag's
range at its edges, and two properties over `cli.main` in process.  Every
argv ends in exit 0, 1 or 2 without a traceback; a parse-time rejection
names its flag; an exit 2 leaves no file or directory behind; and a run
that succeeds writes the same bytes when run again.  Every input file
(field CSV, contour JSON, Matrix Market or JSON matrix, certificate) ends
in exit 0, 1 or 2 without a traceback, an exit 2 writes nothing, and a
run that succeeds writes the same bytes when run again."""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condspec import jsonio, matrixio, svgplot
from condspec.cli import FORMAT_CHOICES, INT_RANGES, build_parser, main
from condspec.spectra import GridSpec, compute_field, write_field_csv
from condspec.theorems import TransientConfig, numerical_range_boundary
from condspec.witness import witness_perturbation

# The arguments each command needs besides the flag under test.
BASE_ARGV = {"compute": ["--matrix", "A.json"], "verify": ["--matrix", "A.json"],
             "plot": [], "gen": ["--kind", "random"]}


def _subparsers():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _int_options():
    """(command, flag) for each option whose default is an integer."""
    return [(command, action.option_strings[0])
            for command, parser in _subparsers().items() for action in parser._actions
            if type(action.default) is int]


def test_every_integer_flag_has_a_row():
    assert {flag for _, flag in _int_options()} == set(INT_RANGES)


def test_table_rows_match_the_library_bounds():
    # The library keeps its own copy of these bounds; each row's edge is its.
    assert INT_RANGES["--n"] == (1, matrixio.MAX_DIMENSION)
    assert INT_RANGES["--width"] == INT_RANGES["--height"] == (2 * svgplot.MARGIN + 1, None)
    low = INT_RANGES["--k-max"][0]
    TransientConfig(M=2.0, k_max=low)
    with pytest.raises(ValueError):
        TransientConfig(M=2.0, k_max=low - 1)
    low = INT_RANGES["--angles"][0]
    numerical_range_boundary(np.eye(2), low)
    with pytest.raises(ValueError):
        numerical_range_boundary(np.eye(2), low - 1)


@pytest.mark.parametrize("command, flag", _int_options(),
                         ids=[f"{c}{f}" for c, f in _int_options()])
def test_int_flag_edges_follow_the_table(tmp_path, capsys, command, flag):
    low, high = INT_RANGES[flag]
    out = tmp_path / "out"
    argv = [command, *BASE_ARGV[command], "--out", str(out)]
    for text in [str(low - 1), "2.5"] + ([] if high is None else [str(high + 1)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={text}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer" in err and "Traceback" not in err
        assert not out.exists()
    dest = flag.lstrip("-").replace("-", "_")
    for value in (low, high):
        if value is not None:
            assert getattr(build_parser().parse_args(argv + [f"{flag}={value}"]), dest) == value
    [action] = [a for a in _subparsers()[command]._actions if flag in a.option_strings]
    assert (f"from {low} to {high}" if high else f">= {low}") in action.help


def test_gen_values_reads_the_n_row(tmp_path, capsys):
    high = INT_RANGES["--n"][1]
    argv = ["gen", "--kind", "diag", "--out", str(tmp_path / "g.json")]
    assert build_parser().parse_args(argv + ["--values", ",".join(["1"] * high)]).values
    with pytest.raises(SystemExit):
        main(argv + ["--values", ",".join(["1"] * (high + 1))])
    assert f"at most {high} values" in capsys.readouterr().err


# --- the property ---------------------------------------------------------------

# The largest value of each flag the property runs; the table's high edge
# only parses (above), since a 4096^2 grid is no test input.  Matrix
# entries reach 1e+-300, whose squares are past float64.
RUN_CAPS = {"--grid": 11, "--k-max": 30, "--angles": 64, "--samples": 16, "--n": 4,
            "--width": 400, "--height": 400, "--seed": 10**30}

_ENTRIES = [0.0, 1.0, -1.0, 0.5, 2.5, 1j, -2 + 1j, 1e-3, 1e150, 1e-150, 1e300, -1e300j,
            1e-300, 5e-324]
_EPS_TOKENS = ["0.05", "0.1", "0.3", "0.5", "0.9", "0.99", "1e-300",
               "0", "-0.1", "1", "1.5", "nan", "inf", "-inf"]


def _rarely(draw):
    return draw(st.integers(0, 3)) == 0


@st.composite
def _int_arg(draw, flag, bad):
    """--flag=value at or past the row's edges; a rejected flag joins `bad`."""
    low, high = INT_RANGES[flag]
    if _rarely(draw):
        bad.add(flag)
        rejected = [str(low - 1), "2.5", "x"] + ([] if high is None else [str(high + 1)])
        return [f"{flag}={draw(st.sampled_from(rejected))}"]
    value = draw(st.sampled_from([low, RUN_CAPS[flag]])
                 | st.integers(low, min(low + 8, RUN_CAPS[flag])))
    return [f"{flag}={value}"]


@st.composite
def _choice(draw, flag, good, bad_values, bad):
    if bad_values and _rarely(draw):
        bad.add(flag)
        return [f"{flag}={draw(st.sampled_from(bad_values))}"]
    return [f"{flag}={draw(st.sampled_from(good))}"]


@st.composite
def _eps_flag(draw, bad):
    tokens = draw(st.lists(st.sampled_from(_EPS_TOKENS), min_size=1, max_size=3))
    if _rarely(draw):  # empty or not a number
        bad.add("--eps")
        tokens = [draw(st.sampled_from(["", "x", ",,"]))]
    elif _rarely(draw):
        tokens *= 2
    return [f"--eps={','.join(tokens)}"]


def _optional(draw, strategy):
    return draw(strategy) if draw(st.booleans()) else []


@st.composite
def cli_cases(draw):
    """(argv with "{base}" for the run's directory, files to write first,
    the flags that must be rejected when parsed)."""
    bad = set()
    command = draw(st.sampled_from(["compute", "verify", "plot", "gen"]))
    files = {}
    n = draw(st.integers(1, 4))
    matrix = np.array(draw(st.lists(st.sampled_from(_ENTRIES), min_size=n * n,
                                    max_size=n * n))).reshape(n, n)
    matrix_name = "A" + draw(st.sampled_from([".json", ".csv", ".mtx"]))
    files[matrix_name] = matrix
    fmt = st.just([]) | _choice("--format", FORMAT_CHOICES, ["xml"], bad)
    if command in ("compute", "verify"):
        argv = [command, "--matrix", "{base}/" + matrix_name, *draw(_int_arg("--grid", bad)),
                *_optional(draw, _eps_flag(bad)), *draw(fmt)]
        if command == "compute":
            argv += _optional(draw, _choice("--kind", ["condition", "pseudo", "both"], [], bad))
            argv += ["--out", "{base}/o/c"]
        else:
            for flag in ("--seed", "--k-max", "--angles", "--samples"):
                argv += _optional(draw, _int_arg(flag, bad))
            argv += _optional(draw, _choice("--M", ["2", "0.5", "1e-300"],
                                            ["0", "-1", "nan", "inf", "x"], bad))
            argv += _optional(draw, _choice("--theorems", ["all", "t1", "t1,t5", "t3", "t6",
                                                           "t10"], ["t11"], bad))
            argv += ["--out", "{base}/o/r.json"]
    elif command == "plot":
        name = draw(st.sampled_from(["contours_condition.json", "contours_pseudo.json"]))
        levels = [{"eps": float(tok), "polylines": [[[0, 0], [1, 1], [0, 1], [0, 0]]]}
                  for tok in draw(st.lists(st.sampled_from(_EPS_TOKENS), max_size=2))]
        files[name] = json.dumps(levels)
        argv = ["plot", "--contours", "{base}/" + name, *draw(fmt), "--out", "{base}/fig.svg"]
        argv += _optional(draw, st.just(["--matrix", "{base}/" + matrix_name]))
        for flag in ("--width", "--height"):
            argv += _optional(draw, _int_arg(flag, bad))
    else:
        kind = draw(st.sampled_from(["jordan", "diag", "random", "rotation"]))
        argv = ["gen", "--kind", kind, *draw(_int_arg("--n", bad)),
                "--out", "{base}/g" + draw(st.sampled_from([".json", ".csv", ".mtx"]))]
        argv += _optional(draw, _int_arg("--seed", bad))
        argv += _optional(draw, _choice("--format", FORMAT_CHOICES, ["xml"], bad))
        argv += _optional(draw, _choice("--value", ["0", "0.9", "1+2i", "x"], [], bad))
        argv += _optional(draw, _choice("--values", ["1,-1", "0.5", "1+2i,3,4", "1,x"], [], bad))
        argv += _optional(draw, _choice("--angle", ["0.5", "-3"], ["x"], bad))
    return argv, files, bad


def _tree(base):
    return {p.relative_to(base).as_posix(): (p.read_bytes() if p.is_file() else None)
            for p in sorted(base.rglob("*"))}


def _run(argv):
    """(exit code, whether argparse raised it, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv), False, err.getvalue()
        except SystemExit as exc:
            return exc.code, True, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(cli_cases())
def test_main_ends_in_0_1_or_2_and_leaves_nothing_on_2(case):
    argv_template, files, bad = case
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for name, content in files.items():
            if isinstance(content, str):
                (base / name).write_text(content)
            else:
                matrixio.write_matrix(content, base / name)
        argv = [a.replace("{base}", tmp) for a in argv_template]
        before = _tree(base)
        code, parse_time, err = _run(argv)
        assert code in (0, 1, 2) and "Traceback" not in err
        assert parse_time == bool(bad)
        if parse_time:
            assert code == 2 and any(f"argument {flag}:" in err for flag in bad), err
        elif code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        if code == 2:
            assert _tree(base) == before
        else:
            written = _tree(base)
            assert _run(argv)[0] == code
            assert _tree(base) == written


# --- the input files ----------------------------------------------------------------
#
# One property over the files the commands read: field CSVs and contour
# JSON for plot, Matrix Market and JSON matrices for compute, certificates
# for verify.  Every file ends in exit 0, 1 or 2 without a traceback; an
# exit 2 prints one error line and writes nothing, and any other exit writes
# the same bytes when run again.  Each run is a grid of at most 5 nodes per
# axis.

def _field_rows():
    buf = io.StringIO()
    write_field_csv(compute_field(np.diag([1.0, -1.0]), GridSpec(-2.0, 2.0, -1.0, 1.0, 4, 3)), buf)
    return buf.getvalue().splitlines(keepends=True)


_FIELD_HEADER, *_FIELD_ROWS = _field_rows()
_DAMAGES = {"drop": lambda rows, k: rows[:k] + rows[k + 1:],
            "duplicate": lambda rows, k: rows[:k + 1] + rows[k:],
            "4-field": lambda rows, k: rows[:k] + [rows[k].rsplit(",", 1)[0] + "\n"] + rows[k + 1:],
            "blank": lambda rows, k: rows[:k] + ["\n"] + rows[k:],
            "non-numeric": lambda rows, k: rows[:k] + ["x" + rows[k][rows[k].index(","):]]
            + rows[k + 1:]}


@st.composite
def _field_file(draw):
    rows = list(_FIELD_ROWS)
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        damage = _DAMAGES[draw(st.sampled_from(sorted(_DAMAGES)))]
        rows = damage(rows, draw(st.integers(0, len(rows) - 1)))
    return _FIELD_HEADER + "".join(rows)


_json_leaves = (st.none() | st.booleans() | st.sampled_from([0, 1, -1, 0.5, 10**400, "x", "1"])
                | st.floats(allow_nan=True, allow_infinity=True))
_json_values = st.recursive(_json_leaves, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.sampled_from(["eps", "polylines", "n", "entries",
                                                               "z", "E", "u"]), inner, max_size=3),
                            max_leaves=8)


def _mostly(draw, good, bad):
    """A draw from `good`, or from `bad` about one time in four."""
    return draw(bad) if draw(st.sampled_from([False, False, False, True])) else draw(good)


@st.composite
def _levels(draw):
    coordinate = st.floats(-3, 3)
    levels = []
    for _ in range(draw(st.integers(0, 3))):
        polylines = draw(st.lists(st.lists(st.tuples(coordinate, coordinate).map(list),
                                           max_size=5), max_size=2))
        polylines = _mostly(draw, st.just(polylines),
                            st.lists(st.lists(_json_leaves, max_size=3), max_size=2))
        level = {"eps": _mostly(draw, st.sampled_from([0.05, 0.1, 0.5, 2.0]), _json_leaves),
                 "polylines": polylines}
        levels.append(_mostly(draw, st.just(level), _json_values))
    return _mostly(draw, st.just(levels), _json_values)


@st.composite
def _matrix_market(draw):
    """A Matrix Market file with at most one fault: in its header, size line,
    entry count, an index or a value."""
    fault = draw(st.sampled_from([None, "header", "size", "count", "index", "value"]))
    header = [draw(st.sampled_from(["coordinate", "array"])),
              draw(st.sampled_from(["real", "complex", "integer"])),
              draw(st.sampled_from(["general", "symmetric", "skew-symmetric", "hermitian"]))]
    if fault == "header":
        header[draw(st.integers(0, 2))] = draw(st.sampled_from(["sparse", "pattern", "diagonal"]))
    layout, field, symmetry = header
    n = draw(st.integers(1, 3))
    values = ["0", "1", "-2.5", "0.25", "1e300"]
    if fault == "value":
        values += ["1e400", "nan", "x", ""]
    width = 2 if field == "complex" else 1
    value = st.lists(st.sampled_from(values), min_size=width, max_size=width).map(" ".join)
    if layout == "array":
        count = (n * n if symmetry == "general" else
                 n * (n - 1) // 2 if symmetry == "skew-symmetric" else n * (n + 1) // 2)
        lines = [f"{n} {n + (fault == 'size')}"]
        lines += [draw(value) for _ in range(count + (fault == "count"))]
    else:
        entries = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n), value),
                                max_size=n * n))
        if symmetry == "skew-symmetric":
            entries = [(i, j, v) for i, j, v in entries if i != j]
        if fault == "index" and entries:
            entries[0] = (n + 1, 0, entries[0][2])
        lines = [f"{n} {n + (fault == 'size')} {len(entries) + (fault == 'count')}"]
        lines += [f"{i} {j} {v}" for i, j, v in entries]
    return "\n".join(["%%MatrixMarket matrix " + " ".join(header), "% a comment"] + lines) + "\n"


@st.composite
def _json_matrix(draw):
    n = draw(st.integers(1, 3))
    cell = _mostly(draw, st.sampled_from([0, 1, -0.5, 2.5, 1e300, [0, 1], [1, -1]]),
                   _json_leaves | st.tuples(_json_leaves, _json_leaves).map(list))
    rows = [[cell] * n for _ in range(n)]
    rows = _mostly(draw, st.just(rows), st.lists(st.lists(_json_leaves | st.just([0, 1]),
                                                          min_size=1, max_size=3), max_size=3))
    obj = _mostly(draw, st.sampled_from([rows, {"n": n, "entries": rows}, {"entries": rows}]),
                  st.fixed_dictionaries({"n": _json_leaves, "entries": st.just(rows)})
                  | _json_values)
    return jsonio.dumps(obj)


_CERTIFICATE = jsonio.loads(jsonio.dumps(
    witness_perturbation(np.diag([1.0, -1.0]), 0.9, 0.5).to_json_obj()))


# The certificate as written, with one value replaced, or any JSON value.
_certificates = st.one_of(
    st.just(_CERTIFICATE),
    st.tuples(st.sampled_from(sorted(_CERTIFICATE)), _json_values).map(
        lambda kv: {**_CERTIFICATE, kv[0]: kv[1]}),
    _json_values,
).map(jsonio.dumps)


# (argv with "{base}" for the run's directory, files to write first), per file kind.
INPUT_FILE_CASES = {
    "field-csv": _field_file().map(lambda text: (
        ["plot", "--field", "{base}/field.csv", "--contours", "{base}/contours_pseudo.json",
         "--out", "{base}/fig.svg"], {"field.csv": text, "contours_pseudo.json": "[]"})),
    "contours": st.tuples(st.sampled_from(["contours_condition.json", "contours_pseudo.json"]),
                          _levels()).map(lambda case: (
        ["plot", "--contours", "{base}/" + case[0], "--out", "{base}/fig.svg"],
        {case[0]: jsonio.dumps(case[1])})),
    "matrix-market": _matrix_market().map(lambda text: (
        ["compute", "--matrix", "{base}/A.mtx", "--grid", "5", "--eps", "0.1", "--out",
         "{base}/o/c"], {"A.mtx": text})),
    "json-matrix": _json_matrix().map(lambda text: (
        ["compute", "--matrix", "{base}/A.json", "--grid", "5", "--eps", "0.1", "--out",
         "{base}/o/c"], {"A.json": text})),
    "certificate": _certificates.map(lambda text: (
        ["verify", "--matrix", "{base}/A.json", "--eps", "0.5", "--grid", "5", "--theorems", "t1",
         "--certificate", "{base}/cert.json", "--out", "{base}/o/r.json"],
        {"A.json": "[[1, 0], [0, -1]]", "cert.json": text})),
}


@pytest.mark.parametrize("kind", list(INPUT_FILE_CASES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_input_files_end_in_0_1_or_2_and_leave_nothing_on_2(kind, data):
    argv_template, files = data.draw(INPUT_FILE_CASES[kind])
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for name, content in files.items():
            (base / name).write_text(content)
        argv = [a.replace("{base}", tmp) for a in argv_template]
        before = _tree(base)
        code, parse_time, err = _run(argv)
        assert code in (0, 1, 2) and not parse_time and "Traceback" not in err, err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert _tree(base) == before
        else:
            written = _tree(base)
            assert _run(argv)[0] == code
            assert _tree(base) == written


# --- counterexamples the property found -------------------------------------------

def _write(path, entries):
    matrixio.write_matrix(np.array(entries), path)
    return str(path)


def test_plot_frames_one_eigenvalue_far_from_0(tmp_path):
    # A pad of 1e-7 around 1e150 rounded away: the plot's bounds were one
    # number, and its axis a division of 0 by 0.
    contours = tmp_path / "contours_condition.json"
    contours.write_text("[]")
    svg = tmp_path / "fig.svg"
    assert main(["plot", "--contours", str(contours), "--matrix",
                 _write(tmp_path / "A.json", [[1e150]]), "--out", str(svg)]) == 0
    assert "nan" not in svg.read_text()


@pytest.mark.parametrize("entries", [[[5e-324]], [[5e-324, 0], [0, 1]]],
                         ids=["one-subnormal", "subnormal-and-1"])
def test_verify_on_a_subnormal_entry_exits_with_a_report(tmp_path, entries):
    # [[5e-324]]: T7's k*s/||A|| rounded to 1 and its bound divided by 0.
    # diag(5e-324, 1): sigma_max / sigma_min overflowed before the ratio
    # was set to +inf for a numerically singular zI - A.
    report = tmp_path / "r.json"
    assert _run(["verify", "--matrix", _write(tmp_path / "A.json", entries), "--grid", "2",
                 "--out", str(report)])[0] in (0, 1)
    assert {e["theorem_id"] for e in json.loads(report.read_text())} >= {"T7σ", "T7ε"}


def test_verify_t5_on_a_subnormal_1x1_matrix(tmp_path):
    # B = S^-1 A S with S = [[2]] was solve(S, A) @ S: 5e-324 / 2 rounds to 0,
    # so B's eigenvalue left A's and all three T5σ reports failed.  A
    # diagonal S now scales each entry by s_j / s_i, exactly for powers of 2.
    report = tmp_path / "r.json"
    assert _run(["verify", "--matrix", _write(tmp_path / "A.json", [[5e-324]]), "--grid", "11",
                 "--out", str(report)])[0] == 0
    t5 = [r for r in json.loads(report.read_text()) if r["theorem_id"] == "T5σ"]
    assert len(t5) == 3 and all(r["passed"] and r["details"]["members_checked"] for r in t5)
