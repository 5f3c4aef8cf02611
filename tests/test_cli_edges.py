"""The CLI's input edge, read from `cli.INT_RANGES`: each integer flag's
range at its edges, and one property over `cli.main` in process.  Every
argv ends in exit 0, 1 or 2 without a traceback; a parse-time rejection
names its flag; an exit 2 leaves no file or directory behind; and a run
that succeeds writes the same bytes when run again."""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condspec import matrixio, svgplot
from condspec.cli import FORMAT_CHOICES, INT_RANGES, build_parser, main
from condspec.theorems import TransientConfig, numerical_range_boundary

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
