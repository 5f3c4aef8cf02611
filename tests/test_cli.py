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
from condspec.cli import INT_RANGES, main
from condspec.matrixio import parse_matrix, write_matrix
from condspec.numkernel import singular_values, as_matrix, spectral_norm
from condspec.witness import certificate_tolerances, witness_perturbation

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
    # The suite made the report's directory; it is removed again.
    code = main(["verify", "--matrix", str(diag_file), "--eps", "0.4",
                 "--theorems", "t5", "--grid", "81",
                 "--out", str(tmp_path / "d1" / "d2" / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kappa(S)^2 * eps = 1.6 >= 1") and err.count("\n") == 1
    assert not (tmp_path / "d1").exists()


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


# The auto grid covers the bounding disk only up to eps = 0.9, so at 0.95
# T3σ cannot count components on it: the sweep skips T3σ, naming the disk,
# and naming T3 makes that fatal.
_DISK_MISSED = "does not contain the bounding disk D(0, 39)"


def test_verify_all_skips_t3_past_the_auto_grid(diag_file, tmp_path):
    report = tmp_path / "r.json"
    assert main(["verify", "--matrix", str(diag_file), "--eps", "0.95",
                 "--grid", "21", "--out", str(report)]) == 0
    [t3] = [e for e in jsonio.loads(report.read_text()) if e["theorem_id"] == "T3σ"]
    assert t3["details"]["status"].startswith("skipped: grid [-20.9")
    assert t3["details"]["status"].endswith(_DISK_MISSED) and t3["details"]["eps"] == 0.95


def test_verify_t3_past_the_auto_grid_exits_2(diag_file, tmp_path, capsys):
    assert main(["verify", "--matrix", str(diag_file), "--eps", "0.95", "--grid", "21",
                 "--theorems", "t3", "--out", str(tmp_path / "d1" / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid [-20.9") and _DISK_MISSED in err
    assert not (tmp_path / "d1").exists()


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
    # The report records the tolerances the check granted: the absolute one
    # on sigma_min(z*I - (A + E)) as slack_used, the relative one on ||E||.
    [report] = [e for e in jsonio.loads((tmp_path / "r.json").read_text())
                if e["theorem_id"] == "CERT"]
    relative, absolute = certificate_tolerances(np.diag([1.0, -1.0]))
    assert report["slack_used"] == absolute == 1e-8 * (1.0 + 1.0)
    assert report["details"]["relative_slack"] == relative == 1e-12


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
    ["gen", "--kind", "random", "--seed", "-1"],
    *(["verify", "--matrix", "A.json", "--M", m] for m in ("-1", "0", "nan", "inf")),
    ["compute", "--matrix", "A.json", "--format", "xml"],
    ["verify", "--matrix", "A.json", "--format", "xml"],
], ids=["plot-width-0", "plot-width-negative", "plot-height-inside-margins", "compute-grid-1",
        "compute-grid-100000", "compute-grid-not-integer", "verify-grid-1",
        "verify-grid-100000", "verify-grid-not-integer", "verify-angles-7",
        "verify-angles-65537", "verify-angles-10**12", "verify-k-max-0",
        "verify-k-max-100001", "verify-k-max-10**12", "verify-samples-65537", "gen-n-0", "gen-n-513",
        "gen-n-100000", "gen-values-513", "verify-seed--1", "gen-seed--1", "verify-M--1",
        "verify-M-0", "verify-M-nan", "verify-M-inf", "compute-format-xml", "verify-format-xml"])
def test_rejects_out_of_range_sizes_at_parse_time(tmp_path, capsys, argv):
    # Rejected before any file is read, any array allocated or any
    # directory made.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    flag = next(a for a in argv if a in INT_RANGES or a in ("--values", "--M", "--format"))
    assert f"argument {flag}:" in err and "Traceback" not in err
    assert not out.exists()


def test_compute_takes_no_seed(tmp_path, capsys):
    # compute draws nothing, so --seed belongs to verify (and gen) alone.
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--matrix", "A.json", "--seed", "3", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


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


# Modules that only verify (or a multi-chunk pool) needs; compute, plot and
# gen start without them.
VERIFY_ONLY = ["condspec.theorems", "condspec.witness", "condspec.report",
               "condspec.geometry", "concurrent.futures"]


def test_cli_import_leaves_verify_layers_and_the_pool_unloaded(diag_file, tmp_path):
    script = f"""
import json, sys
import condspec
bare = sorted(m for m in sys.modules if m.startswith("condspec."))
from condspec.cli import main
loaded = lambda: [m for m in {VERIFY_ONLY!r} if m in sys.modules]
after_import = loaded()
base, matrix = {str(tmp_path)!r}, {str(diag_file)!r}
assert main(["compute", "--matrix", matrix, "--eps", "0.2", "--kind", "both",
             "--grid", "41", "--out", base + "/c"]) == 0
assert main(["plot", "--field", base + "/c/field.csv", "--contours",
             base + "/c/contours_condition.json", "--matrix", matrix,
             "--width", "300", "--out", base + "/p.svg"]) == 0
print(json.dumps([bare, after_import, loaded()]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    bare, after_import, after_commands = jsonio.loads(out.stdout.splitlines()[-1])
    assert bare == [] and after_import == []
    # a 41 x 41 field takes several chunks, so compute starts the pool
    assert after_commands == ["concurrent.futures"]


def test_package_names_are_the_defining_modules_objects():
    import importlib

    import condspec

    assert len(set(condspec.__all__)) == len(condspec.__all__)
    assert set(condspec.__all__) <= set(dir(condspec))
    for name in condspec.__all__:
        obj = getattr(condspec, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    namespace = {}
    exec("from condspec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(condspec.__all__)
    assert all(namespace[n] is getattr(condspec, n) for n in condspec.__all__)
    with pytest.raises(AttributeError, match="no attribute 'spectrum_kind'"):
        condspec.spectrum_kind


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
    assert not (tmp_path / "b").exists()
    for eps in ("0", "-1", "1.5", "0.2,1"):  # checked before the report's directory is made
        assert main(["verify", "--matrix", str(diag_file), "--eps", eps,
                     "--grid", "41", "--out", str(tmp_path / "d1" / "r.json")]) == 2
        assert not (tmp_path / "d1").exists()


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
                     "--kind", "both", "--grid", "61", "--out", str(outdir)]) == 0
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
    ("contours_condition.json", '[{"eps": 0.1, "polylines": [[[NaN, 0], [1, 1]]]}]'),
    ("contours_condition.json", '[{"eps": 0.1, "polylines": [[[0, 0], [Infinity, 1]]]}]'),
    ("contours_condition.json", '[{"eps": true, "polylines": []}]'),
    ("contours_condition.json", '[{"eps": NaN, "polylines": []}]'),
    ("contours_condition.json", '[{"eps": -Infinity, "polylines": []}]'),
    ("contours_condition.json", '[{"eps": -1, "polylines": []}, {"eps": 5, "polylines": []}]'),
    ("contours_condition.json", '[{"eps": 0.1, "polylines": []}, {"eps": 5, "polylines": []}]'),
    ("contours_condition.json", '[{"eps": 1, "polylines": []}]'),
    ("contours_pseudo.json", '[{"eps": 0, "polylines": []}]'),
], ids=["header-only", "4-columns", "6-columns", "duplicated-node", "level-not-object", "no-polylines",
        "not-a-list", "polyline-not-list", "point-past-float64", "eps-past-float64", "point-nan",
        "point-infinite", "eps-true", "eps-nan", "eps-infinite", "eps-negative",
        "condition-eps-past-1", "condition-eps-1", "pseudo-eps-0"])
def test_plot_rejects_malformed_inputs_with_exit_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    flag = "--field" if name == "field.csv" else "--contours"
    assert main(["plot", flag, str(path), "--out", str(tmp_path / "fig.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " if flag == "--field" else f"error: {path}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "fig.svg").exists()


def test_plot_takes_pseudo_levels_past_1(tmp_path):
    # eps >= 1 is out of range for a condition spectrum only
    path = tmp_path / "contours_pseudo.json"
    path.write_text('[{"eps": 5, "polylines": [[[0, 0], [1, 1]]]}]')
    assert main(["plot", "--contours", str(path), "--out", str(tmp_path / "fig.svg")]) == 0
    assert "eps=5" in (tmp_path / "fig.svg").read_text()


def test_verify_checks_its_output_path_before_the_suite(diag_file, tmp_path, capsys,
                                                        monkeypatch):
    from condspec import theorems

    def no_suite(*args, **kwargs):
        raise AssertionError("run_suite called before the output path was checked")

    monkeypatch.setattr(theorems, "run_suite", no_suite)
    blocker = tmp_path / "D.json"
    blocker.write_text("{}")
    code = main(["verify", "--matrix", str(diag_file), "--eps", "0.5", "--grid", "21",
                 "--out", str(blocker / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_verify_creates_the_directory_of_its_report(diag_file, tmp_path):
    report = tmp_path / "new" / "sub" / "r.json"
    assert main(["verify", "--matrix", str(diag_file), "--eps", "0.5", "--grid", "21",
                 "--theorems", "t1", "--out", str(report)]) == 0
    assert jsonio.loads(report.read_text())[0]["theorem_id"] == "T1σ"


def test_compute_onto_a_file_exits_2(diag_file, tmp_path, capsys):
    blocker = tmp_path / "D.json"
    blocker.write_text("{}")
    assert main(["compute", "--matrix", str(diag_file), "--grid", "11",
                 "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text() == "{}"


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
    from condspec import theorems

    def no_suite(*args, **kwargs):
        raise AssertionError("run_suite called before the certificate was checked")

    monkeypatch.setattr(theorems, "run_suite", no_suite)
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
    assert not (tmp_path / "out").exists()  # the grid is sized before the directory is made


# eps = 1e-320 makes smin / eps overflow in the pseudospectrum's distance
# from its level; A = 1e-300 * I at eps = 0.05 makes eps / smin overflow in
# its depth.  Both values are +inf either way.  The reports hold the values
# of those written while numpy still printed its overflow warning, bit for
# bit; the digests changed when floats came to be written as their repr
# (21 and 20 integral floats now read "2.0" where they read "2"), and the
# second when T7 began reporting the slack it grants to the members T5
# checks: T7σ holds 0 members (lhs null, slack_used 0.0), and T7ε, which
# has no admissible k > 0, slack_used 0.0.
@pytest.mark.parametrize("diagonal, eps, digest", [
    ([1.0, -1.0], "1e-320", "27b083ea30c10b9aacaa8b44c056a3a709922d5b569e09e35295111e0683b830"),
    ([1e-300, 1e-300], "0.05", "23ae033233f69013832f29328dda8b5ab59e0a417a2a4adcbbe19e32be8934dc"),
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


def test_verify_on_an_entry_of_1e300_passes_t9(tmp_path):
    # T9 squared coordinates near 1e300 in its hull and polygon distances:
    # numpy warned of an overflow, and T9σ and T9ε failed at every eps.
    matrix, report = tmp_path / "A.json", tmp_path / "r.json"
    write_matrix(np.diag([0.0, 0.0, 1e300]), matrix)
    assert main(["verify", "--matrix", str(matrix), "--grid", "11", "--out", str(report)]) == 0
    t9 = [e for e in jsonio.loads(report.read_text()) if e["theorem_id"].startswith("T9")]
    assert len(t9) == 6 and all(e["passed"] for e in t9)


def test_verify_field_holds_the_pseudospectrum_of_a_small_matrix(tmp_path, monkeypatch):
    # ||A|| = 0.2: the condition spectrum's disk at eps 0.4 has radius
    # 1.4/0.6 * 0.2 = 0.467, the pseudospectrum's 0.6.  verify sizes its
    # field for both, so no eps-member node lies on the grid's edge and
    # T2ε's largest member is the node nearest max |z| = 0.6.
    from condspec import theorems
    from condspec.spectra import PSEUDO, compute_field

    grids, run_suite = [], theorems.run_suite
    monkeypatch.setattr(theorems, "run_suite",
                        lambda A, eps, **kw: grids.append(kw["grid"]) or run_suite(A, eps, **kw))
    matrix, report = tmp_path / "A.json", tmp_path / "r.json"
    write_matrix(np.diag([0.2, -0.2]), matrix)
    assert main(["verify", "--matrix", str(matrix), "--eps", "0.4", "--grid", "41",
                 "--theorems", "t2", "--out", str(report)]) == 0
    [t2e] = [e for e in jsonio.loads(report.read_text()) if e["theorem_id"] == "T2ε"]
    assert t2e["lhs"] == pytest.approx(0.5977, abs=1e-4)
    mask = compute_field(parse_matrix(matrix), grids[0]).member_mask(0.4, PSEUDO)
    assert mask.any() and not (mask[0].any() or mask[-1].any()
                               or mask[:, 0].any() or mask[:, -1].any())


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
