"""CLI behavior: pipeline, exit codes, SVG structure, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from condspec import jsonio
from condspec.cli import main
from condspec.matrixio import parse_matrix, write_matrix
from condspec.numkernel import singular_values, as_matrix, spectral_norm
from condspec.witness import witness_perturbation

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture()
def diag_file(tmp_path):
    path = tmp_path / "A.json"
    write_matrix(np.diag([1.0, -1.0]), path)
    return path


def _svg_counts(path):
    root = ET.parse(path).getroot()
    paths = [e for e in root.iter(f"{SVG_NS}path") if e.get("class") == "contour"]
    markers = [e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "eigenvalue"]
    return len(paths), len(markers)


def test_gen_round_trip(tmp_path):
    out = tmp_path / "j.json"
    assert main(["gen", "--kind", "jordan", "--n", "3", "--value", "0.9",
                 "--out", str(out)]) == 0
    m = parse_matrix(out)
    assert m.entries[0, 0] == 0.9 and m.entries[0, 1] == 1.0


def test_compute_then_plot(diag_file, tmp_path):
    outdir = tmp_path / "out"
    assert main(["compute", "--matrix", str(diag_file), "--eps", "0.1,0.3",
                 "--grid", "81", "--out", str(outdir)]) == 0
    field = outdir / "field.csv"
    contours = outdir / "contours_condition.json"
    assert field.exists() and contours.exists()
    data = jsonio.loads(contours.read_text())
    assert [lv["eps"] for lv in data] == [0.1, 0.3]
    assert all(len(lv["polylines"]) == 2 for lv in data)

    svg = tmp_path / "fig.svg"
    assert main(["plot", "--field", str(field), "--contours", str(contours),
                 "--matrix", str(diag_file), "--out", str(svg)]) == 0
    n_paths, n_markers = _svg_counts(svg)
    assert n_paths == 4 and n_markers == 2


def test_plot_markers_only_for_empty_contours(tmp_path):
    mpath = tmp_path / "zero.json"
    write_matrix(np.zeros((2, 2)), mpath)
    outdir = tmp_path / "out"
    assert main(["compute", "--matrix", str(mpath), "--eps", "0.3",
                 "--grid", "41", "--out", str(outdir)]) == 0
    svg = tmp_path / "only-markers.svg"
    assert main(["plot", "--contours", str(outdir / "contours_condition.json"),
                 "--matrix", str(mpath), "--out", str(svg)]) == 0
    n_paths, n_markers = _svg_counts(svg)
    assert n_paths == 0 and n_markers == 2


def test_verify_exit_zero(diag_file, tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", "--matrix", str(diag_file), "--eps", "0.3",
                 "--grid", "81", "--out", str(report)]) == 0
    entries = jsonio.loads(report.read_text())
    assert all(e["passed"] for e in entries)
    assert {e["theorem_id"] for e in entries} >= {"T1σ", "T10ε"}


def test_verify_explicit_t5_precondition_exits_2(diag_file, tmp_path, capsys):
    # kappa(S)^2 * eps = 4 * 0.4 >= 1: main's one exit-2 handler reports it.
    code = main(["verify", "--matrix", str(diag_file), "--eps", "0.4",
                 "--theorems", "t5", "--grid", "81",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kappa(S)^2 * eps = 1.6 >= 1") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_verify_explicit_selection_runs_only_named(diag_file, tmp_path):
    report = tmp_path / "r.json"
    assert main(["verify", "--matrix", str(diag_file), "--eps", "0.2",
                 "--theorems", "t1,t10", "--grid", "81", "--out", str(report)]) == 0
    ids = {e["theorem_id"] for e in jsonio.loads(report.read_text())}
    assert ids == {"T1σ", "T1ε", "T10σ", "T10ε"}


def test_verify_all_skips_t5_at_large_eps(diag_file, tmp_path):
    report = tmp_path / "r.json"
    assert main(["verify", "--matrix", str(diag_file), "--eps", "0.4",
                 "--grid", "81", "--out", str(report)]) == 0
    entries = jsonio.loads(report.read_text())
    t5 = [e for e in entries if e["theorem_id"] == "T5σ"]
    assert t5 and str(t5[0]["details"].get("status", "")).startswith("skipped")


def test_verify_tampered_certificate_exits_1(diag_file, tmp_path):
    A = np.diag([1.0, -1.0])
    w = witness_perturbation(A, 0.9, 0.5)
    smax = float(singular_values(as_matrix(A).shifted(0.9))[0])
    scale = 2 * 0.5 * smax / spectral_norm(w.E)
    obj = w.to_json_obj()
    obj["E"] = w.E.entries * scale  # oversized: ||E|| = 2 eps ||z - A||
    cert = tmp_path / "cert.json"
    cert.write_text(jsonio.dumps(obj))
    code = main(["verify", "--matrix", str(diag_file), "--eps", "0.5",
                 "--grid", "81", "--theorems", "t1", "--certificate", str(cert),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    entries = jsonio.loads((tmp_path / "r.json").read_text())
    cert_entries = [e for e in entries if e["theorem_id"] == "CERT"]
    assert cert_entries and not cert_entries[0]["passed"]


def test_valid_certificate_accepted(diag_file, tmp_path):
    w = witness_perturbation(np.diag([1.0, -1.0]), 0.9, 0.5)
    cert = tmp_path / "cert.json"
    cert.write_text(jsonio.dumps(w.to_json_obj()))
    code = main(["verify", "--matrix", str(diag_file), "--eps", "0.5",
                 "--grid", "81", "--theorems", "t1", "--certificate", str(cert),
                 "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_malformed_matrix_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2], [3]]")
    assert main(["verify", "--matrix", str(bad), "--eps", "0.2",
                 "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("samples", ["-5", "0", "2.5"])
def test_verify_rejects_samples_below_one_at_parse_time(diag_file, tmp_path, capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--matrix", str(diag_file), "--samples", samples,
              "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --samples:" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["plot", "--contours", "c.json", "--width", "0"],
    ["plot", "--contours", "c.json", "--width", "-5", "--height", "10"],
    ["plot", "--contours", "c.json", "--height", "96"],
    ["compute", "--matrix", "A.json", "--grid", "1"],
    ["compute", "--matrix", "A.json", "--grid", "100000"],
    ["compute", "--matrix", "A.json", "--grid", "x"],
    ["verify", "--matrix", "A.json", "--grid", "1"],
    ["verify", "--matrix", "A.json", "--grid", "100000"],
    ["verify", "--matrix", "A.json", "--grid", "x"],
    ["verify", "--matrix", "A.json", "--angles", "7"],
    ["verify", "--matrix", "A.json", "--angles", "65537"],
    ["verify", "--matrix", "A.json", "--angles", str(10**12)],
    ["verify", "--matrix", "A.json", "--k-max", "0"],
    ["verify", "--matrix", "A.json", "--k-max", "100001"],
    ["verify", "--matrix", "A.json", "--k-max", str(10**12)],
    ["verify", "--matrix", "A.json", "--samples", "65537"],
    ["gen", "--kind", "random", "--n", "0"],
    ["gen", "--kind", "random", "--n", "513"],
    ["gen", "--kind", "random", "--n", "100000"],
    ["gen", "--kind", "diag", "--values", ",".join(["1"] * 513)],
    ["verify", "--matrix", "A.json", "--seed", "-1"],
    ["compute", "--matrix", "A.json", "--seed", "-1"],
    ["gen", "--kind", "random", "--seed", "-1"],
], ids=["plot-width-0", "plot-width-negative", "plot-height-inside-margins", "compute-grid-1",
        "compute-grid-100000", "compute-grid-not-integer", "verify-grid-1",
        "verify-grid-100000", "verify-grid-not-integer", "verify-angles-7",
        "verify-angles-65537", "verify-angles-10**12", "verify-k-max-0",
        "verify-k-max-100001", "verify-k-max-10**12", "verify-samples-65537", "gen-n-0", "gen-n-513",
        "gen-n-100000", "gen-values-513", "verify-seed--1", "compute-seed--1", "gen-seed--1"])
def test_rejects_out_of_range_sizes_at_parse_time(tmp_path, capsys, argv):
    # Rejected before any file is read or any array allocated.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    flag = next(a for a in argv
                if a in ("--width", "--height", "--grid", "--angles", "--k-max", "--samples", "--n",
                         "--values", "--seed"))
    assert f"argument {flag}:" in err and "Traceback" not in err
    assert not out.exists()


def test_plot_accepts_the_smallest_frame(diag_field_csv, tmp_path):
    _, contours = diag_field_csv
    svg = tmp_path / "small.svg"
    assert main(["plot", "--contours", str(contours), "--width", "97", "--height", "97",
                 "--out", str(svg)]) == 0
    frame = [e for e in ET.parse(svg).getroot().iter(f"{SVG_NS}rect") if e.get("fill") == "none"]
    assert [(e.get("width"), e.get("height")) for e in frame] == [("1", "1")]


def test_compute_verify_and_plot_leave_scipy_unloaded(diag_file, tmp_path):
    # One interpreter runs every command that computes, T3's component
    # count included, then lists the scipy modules it holds.
    script = f"""
import json, sys
from condspec.cli import main
base, matrix = {str(tmp_path)!r}, {str(diag_file)!r}
assert main(["compute", "--matrix", matrix, "--eps", "0.2", "--kind", "both",
             "--grid", "41", "--out", base + "/c"]) == 0
assert main(["verify", "--matrix", matrix, "--eps", "0.2", "--theorems", "all",
             "--grid", "41", "--samples", "8", "--out", base + "/r.json"]) == 0
assert main(["plot", "--field", base + "/c/field.csv", "--contours",
             base + "/c/contours_condition.json", "--matrix", matrix,
             "--out", base + "/p.svg"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert jsonio.loads(out.stdout.splitlines()[-1]) == []
    [t3] = [e for e in jsonio.loads((tmp_path / "r.json").read_text())
            if e["theorem_id"] == "T3σ"]
    assert t3["passed"] and t3["lhs"] == 2.0


def _cli_import_output(module):
    """stdout of a fresh `import condspec.cli` that then prints whether
    `module` is loaded; anything but exactly "False" fails the caller."""
    code = f"import sys, condspec.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


def test_cli_import_defers_scipy_ndimage():
    assert _cli_import_output("scipy.ndimage") == "False"


def test_cli_import_leaves_out_scipy_spatial():
    # qhull would add its import time to every CLI start
    assert _cli_import_output("scipy.spatial") == "False"


def test_verify_reports_overflowing_power_bound(tmp_path, capsys):
    path = tmp_path / "big.json"
    write_matrix(np.array([[1e200, 1.0], [0.0, 1e200]]), path)
    report = tmp_path / "r.json"
    assert main(["verify", "--matrix", str(path), "--eps", "0.05", "--theorems", "t7",
                 "--grid", "41", "--out", str(report)]) in (0, 1)
    entries = jsonio.loads(report.read_text())
    assert {e["theorem_id"] for e in entries} == {"T7σ", "T7ε"}
    assert all("overflow" in e["details"]["status"] for e in entries)
    assert "Traceback" not in capsys.readouterr().err


def test_verify_summary_counts_vacuous(tmp_path, capsys):
    path = tmp_path / "zero.json"
    write_matrix(np.zeros((2, 2)), path)
    report = tmp_path / "r.json"
    assert main(["verify", "--matrix", str(path), "--eps", "0.2",
                 "--grid", "41", "--out", str(report)]) == 0
    entries = jsonio.loads(report.read_text())
    status = [e["details"].get("status", "") for e in entries]
    vacuous = sum(s.startswith("vacuous") for s in status)
    skipped = sum(s.startswith("skipped") for s in status)
    assert vacuous > 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last == f"{len(entries) - skipped} passed ({vacuous} vacuous), 0 failed, {skipped} skipped"


def test_illegal_eps_per_kind(diag_file, tmp_path):
    # pseudospectrum admits eps > 1, the condition spectrum does not
    assert main(["compute", "--matrix", str(diag_file), "--eps", "1.5",
                 "--kind", "pseudo", "--grid", "41", "--out", str(tmp_path / "a")]) == 0
    assert main(["compute", "--matrix", str(diag_file), "--eps", "1.5",
                 "--kind", "condition", "--grid", "41", "--out", str(tmp_path / "b")]) == 2
    assert main(["verify", "--matrix", str(diag_file), "--eps", "0",
                 "--grid", "41", "--out", str(tmp_path / "r.json")]) == 2


def test_pipeline_survives_generator_matrices(tmp_path):
    # compute followed by plot succeeds for every generator kind, up to n = 64
    for kind, extra in (("jordan", ["--n", "8", "--value", "0.9"]),
                        ("random", ["--n", "64", "--seed", "5"]),
                        ("rotation", ["--n", "4", "--angle", "0.9"]),
                        ("diag", ["--values", "1,-1,2i"])):
        mpath = tmp_path / f"{kind}.json"
        assert main(["gen", "--kind", kind, *extra, "--out", str(mpath)]) == 0
        outdir = tmp_path / f"out_{kind}"
        assert main(["compute", "--matrix", str(mpath), "--eps", "0.2",
                     "--grid", "41", "--out", str(outdir)]) == 0
        svg = tmp_path / f"{kind}.svg"
        assert main(["plot", "--field", str(outdir / "field.csv"),
                     "--contours", str(outdir / "contours_condition.json"),
                     "--matrix", str(mpath), "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")


def test_byte_identical_outputs_across_runs(diag_file, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        outdir = tmp_path / f"out_{tag}"
        svg = tmp_path / f"fig_{tag}.svg"
        rep = tmp_path / f"rep_{tag}.json"
        assert main(["compute", "--matrix", str(diag_file), "--eps", "0.2",
                     "--kind", "both", "--grid", "61", "--out", str(outdir),
                     "--seed", "9"]) == 0
        assert main(["verify", "--matrix", str(diag_file), "--eps", "0.2",
                     "--grid", "61", "--seed", "9", "--out", str(rep)]) == 0
        assert main(["plot", "--field", str(outdir / "field.csv"),
                     "--contours", str(outdir / "contours_condition.json"),
                     "--contours", str(outdir / "contours_pseudo.json"),
                     "--matrix", str(diag_file), "--out", str(svg)]) == 0
        blobs.append((
            (outdir / "field.csv").read_bytes(),
            (outdir / "contours_condition.json").read_bytes(),
            (outdir / "contours_pseudo.json").read_bytes(),
            rep.read_bytes(),
            svg.read_bytes(),
        ))
    assert blobs[0] == blobs[1]


def _field_csv_2x2(values):
    """field.csv text: the header, then a complete 2 x 2 grid of rows
    `re,im,<values>`."""
    return "re,im,sigma_min,sigma_max,ratio\n" + "".join(
        f"{re},{im},{values}\n" for re in (0, 1) for im in (0, 1))


@pytest.mark.parametrize("name, text", [
    ("field.csv", "re,im,sigma_min,sigma_max,ratio\n"),
    ("field.csv", _field_csv_2x2("1,1")),
    ("field.csv", _field_csv_2x2("1,1,1,1")),
    ("field.csv", "re,im,sigma_min,sigma_max,ratio\n0,0,1,1,1\n0,0,1,1,1\n1,0,1,1,1\n1,1,1,1,1\n"),
    ("contours_condition.json", '[[{"x": 1}]]'),
    ("contours_condition.json", '[{"eps": 0.1}]'),
    ("contours_condition.json", '{"eps": 0.1, "polylines": []}'),
    ("contours_condition.json", '[{"eps": 0.1, "polylines": [{"x": 1}]}]'),
    ("contours_condition.json", f'[{{"eps": 0.1, "polylines": [[[{10**400}, 1]]]}}]'),
    ("contours_condition.json", f'[{{"eps": {10**400}, "polylines": []}}]'),
], ids=["header-only", "4-columns", "6-columns", "duplicated-node", "level-not-object", "no-polylines",
        "not-a-list", "polyline-not-list", "point-past-float64", "eps-past-float64"])
def test_plot_rejects_malformed_inputs_with_exit_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    flag = "--field" if name == "field.csv" else "--contours"
    assert main(["plot", flag, str(path), "--out", str(tmp_path / "fig.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "fig.svg").exists()


@pytest.fixture()
def diag_field_csv(diag_file, tmp_path):
    """field.csv and condition contours that compute wrote for diag(1, -1)."""
    outdir = tmp_path / "out"
    assert main(["compute", "--matrix", str(diag_file), "--eps", "0.2", "--grid", "41",
                 "--out", str(outdir)]) == 0
    return outdir / "field.csv", outdir / "contours_condition.json"


def test_plot_writes_the_same_svg_from_shuffled_field_rows(diag_field_csv, tmp_path):
    field, contours = diag_field_csv
    header, *rows = field.read_text().splitlines(keepends=True)
    random.Random(5).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows))
    svgs = []
    for path in (field, shuffled):
        svg = tmp_path / f"{path.stem}.svg"
        assert main(["plot", "--field", str(path), "--contours", str(contours),
                     "--out", str(svg)]) == 0
        svgs.append(svg.read_bytes())
    assert svgs[0] == svgs[1]


@pytest.mark.parametrize("damage", ["drop-row", "duplicate-row", "4-field-row"])
def test_plot_rejects_damaged_compute_order_field_with_exit_2(diag_field_csv, tmp_path,
                                                              capsys, damage):
    field, _ = diag_field_csv
    header, *rows = field.read_text().splitlines(keepends=True)
    k = len(rows) // 2 + 7  # deep inside a re block
    if damage == "drop-row":
        del rows[k]
    elif damage == "duplicate-row":
        rows.insert(k, rows[k])
    else:
        rows[k] = rows[k].rsplit(",", 1)[0] + "\n"
    bad = tmp_path / "bad.csv"
    bad.write_text(header + "".join(rows))
    assert main(["plot", "--field", str(bad), "--out", str(tmp_path / "fig.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "fig.svg").exists()


_SQUARE_E = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


@pytest.mark.parametrize("certificate", [
    None, [], {}, {"z": [0, 0]}, {"z": "x", "E": 1}, {"z": [0, 0], "E": [[1]]},
    {"z": [0, 0], "eps_hat": 0.0, "E": _SQUARE_E},
], ids=["null", "list", "empty-object", "no-E", "bad-z-and-E", "no-u", "no-u-v-w"])
def test_verify_rejects_malformed_certificate_with_exit_2(diag_file, tmp_path, capsys,
                                                          certificate):
    cert = tmp_path / "cert.json"
    cert.write_text(jsonio.dumps(certificate))
    code = main(["verify", "--matrix", str(diag_file), "--eps", "0.5", "--grid", "21",
                 "--theorems", "t1", "--certificate", str(cert),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "certificate" in err and "Traceback" not in err


def test_verify_rejects_malformed_certificate_before_the_suite(diag_file, tmp_path, capsys,
                                                               monkeypatch):
    import condspec.cli as cli

    def no_suite(*args, **kwargs):
        raise AssertionError("run_suite called before the certificate was checked")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    cert = tmp_path / "cert.json"
    cert.write_text("null")
    code = main(["verify", "--matrix", str(diag_file), "--eps", "0.5", "--grid", "21",
                 "--certificate", str(cert), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "certificate" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["compute-matrix", "verify-certificate", "plot-contours"])
def test_deeply_nested_json_exits_2(diag_file, tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    out = str(tmp_path / "out")
    argv = {
        "compute-matrix": ["compute", "--matrix", str(deep), "--grid", "11", "--out", out],
        "verify-certificate": ["verify", "--matrix", str(diag_file), "--eps", "0.5", "--grid",
                               "21", "--theorems", "t1", "--certificate", str(deep),
                               "--out", out],
        "plot-contours": ["plot", "--contours", str(deep), "--out", out],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err


def test_matrix_cell_past_float64_exits_2(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(f"[[1, 0], [0, {10**400}]]")
    assert main(["compute", "--matrix", str(big), "--grid", "11",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 2, entry 2" in err


def test_auto_grid_past_float64_exits_2_without_warnings(tmp_path):
    # ||A|| is finite, but the auto grid's span 2 * 1.1 * (1.1/0.9) * 1e308 is not.
    matrix = tmp_path / "a.json"
    assert main(["gen", "--kind", "diag", "--values=-1e308,1", "--out", str(matrix)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-m", "condspec", "compute", "--matrix", str(matrix),
                          "--eps", "0.1", "--grid", "11", "--out", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 2
    [line] = out.stderr.splitlines()
    assert line.startswith("error: grid [-1.34444e+308, 1.34444e+308]") and "spans inf" in line


# eps = 1e-320 makes smin / eps overflow in the pseudospectrum's distance
# from its level; A = 1e-300 * I at eps = 0.05 makes eps / smin overflow in
# its depth.  Both values are +inf either way.  The digests are those of the
# reports written while numpy still printed its overflow warning.
@pytest.mark.parametrize("diagonal, eps, digest", [
    ([1.0, -1.0], "1e-320", "38d935d668bf7d56a4ee5221fd1e21a115b6b815623666226cf442e10a2c81aa"),
    ([1e-300, 1e-300], "0.05", "805f9d212d3276c80daeb79ada2ad17224d62af9dac1687413333c7d24202747"),
], ids=["eps-1e-320", "tiny-diagonal"])
def test_verify_overflow_to_inf_prints_no_warning(tmp_path, diagonal, eps, digest):
    matrix, report = tmp_path / "A.json", tmp_path / "report.json"
    matrix.write_text(json.dumps(np.diag(diagonal).tolist()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-m", "condspec", "verify", "--matrix", str(matrix),
                          "--eps", eps, "--grid", "21", "--out", str(report)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0 and out.stderr == ""
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def _command_sequence(matrix, base):
    def out(name):
        return str(base / name)
    return [
        ["compute", "--matrix", str(matrix), "--kind", "both", "--grid", "21", "--out", out("x")],
        ["compute", "--matrix", str(matrix), "--eps", "0.3", "--grid", "15", "--out", out("y")],
        ["plot", "--contours", out("x/contours_condition.json"),
         "--contours", out("x/contours_pseudo.json"), "--width", "320", "--out", out("p1.svg")],
        ["plot", "--contours", out("y/contours_condition.json"), "--out", out("p2.svg")],
        ["verify", "--matrix", str(matrix), "--eps", "0.2", "--grid", "21", "--samples", "8",
         "--out", out("r1.json")],
        ["verify", "--matrix", str(matrix), "--grid", "15", "--seed", "3", "--out", out("r2.json")],
    ]


def _outputs(base):
    return {p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def test_main_calls_in_one_process_match_fresh_processes(diag_file, tmp_path, capsys):
    # main builds its parser once; a flag of one call must not leak into the next.
    inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
    stdout_in = []
    for argv in _command_sequence(diag_file, inproc):
        assert main(argv) == 0
        stdout_in.append(capsys.readouterr().out.replace(str(inproc), "<base>"))
    stdout_fresh = []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv in _command_sequence(diag_file, fresh):
        out = subprocess.run([sys.executable, "-m", "condspec", *argv], capture_output=True,
                             text=True, env=env, check=True, timeout=120)
        stdout_fresh.append(out.stdout.replace(str(fresh), "<base>"))
    assert stdout_in == stdout_fresh
    assert len(_outputs(inproc)) == 9
    assert _outputs(inproc) == _outputs(fresh)
