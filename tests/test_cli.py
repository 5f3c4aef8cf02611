"""CLI behavior: pipeline, exit codes, SVG structure, determinism."""

import os
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


def test_verify_explicit_t5_precondition_exits_2(diag_file, tmp_path):
    code = main(["verify", "--matrix", str(diag_file), "--eps", "0.4",
                 "--theorems", "t5", "--grid", "81",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


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
    ("contours_condition.json", '[[{"x": 1}]]'),
    ("contours_condition.json", '[{"eps": 0.1}]'),
    ("contours_condition.json", '{"eps": 0.1, "polylines": []}'),
    ("contours_condition.json", '[{"eps": 0.1, "polylines": [{"x": 1}]}]'),
], ids=["header-only", "4-columns", "6-columns", "level-not-object", "no-polylines",
        "not-a-list", "polyline-not-list"])
def test_plot_rejects_malformed_inputs_with_exit_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    flag = "--field" if name == "field.csv" else "--contours"
    assert main(["plot", flag, str(path), "--out", str(tmp_path / "fig.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "fig.svg").exists()
