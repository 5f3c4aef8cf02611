"""Tests of the benchmark itself: deterministic inputs, checks, tracing, and
a tiny end-to-end smoke run of run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(name, tmp_path):
    a = workloads.build(name, 5)
    b = workloads.build(name, 5)
    c = workloads.build(name, 6)
    assert [m.label for m in a.matrices] == [m.label for m in b.matrices]
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma.entries, mb.entries)
        assert ma.cert_z == mb.cert_z
    assert any(not np.array_equal(ma.entries, mc.entries)
               for ma, mc in zip(a.matrices, c.matrices))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pa = workloads.write_inputs(a, tmp_path / "a")
    pb = workloads.write_inputs(b, tmp_path / "b")
    assert [p.read_bytes() for p in pa] == [p.read_bytes() for p in pb]


def test_member_points_are_members():
    wl = workloads.build("verify-corpus", 1)
    eps = wl.eps[0]
    for m in wl.matrices:
        s = np.linalg.svd(m.cert_z * np.eye(len(m.entries)) - m.entries, compute_uv=False)
        assert s[-1] == 0 or s[0] / s[-1] >= 1.0 / eps, m.label


def test_oracle_flags_a_corrupted_field(tmp_path):
    from condspec.spectra import GridSpec, compute_field, write_field_csv

    A = np.array([[0.5, 2.0], [0.0, -0.5]], dtype=complex)
    field = compute_field(A, GridSpec.square(2.0, 9))
    path = tmp_path / "field.csv"
    with open(path, "w") as fp:
        write_field_csv(field, fp)
    assert checks.oracle_misses(path, A, 9, seed=0) == (0, [])
    lines = path.read_text().splitlines()
    lines[1:] = [",".join(row.split(",")[:2] + ["0.5", "7", "14"]) for row in lines[1:]]
    path.write_text("\n".join(lines) + "\n")
    misses, problems = checks.oracle_misses(path, A, 9, seed=0)
    assert misses == checks.ORACLE_SAMPLES and problems


def test_tracer_restores_the_library():
    from condspec import cli, spectra, theorems

    before = (spectra.compute_field, theorems.compute_field, cli.compute_field,
              theorems.check_t9, cli.RunConfig.resolve_grid)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert theorems.compute_field is not before[1]
        theorems.check_t1(np.eye(2), 0.1)
    finally:
        tracer.uninstall()
    after = (spectra.compute_field, theorems.compute_field, cli.compute_field,
             theorems.check_t9, cli.RunConfig.resolve_grid)
    assert all(x is y for x, y in zip(before, after))
    assert tracer.totals()["count"]["theorems.check_t1"] == 1
    assert tracer.counters["numkernel.matrix_wraps"] >= 1


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "condbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name,trace,section", [
    ("field-dense", "0", "end_to_end"),
    ("compute-fine", "0", "end_to_end"),
    ("verify-corpus", "1", "per_layer"),
])
def test_tiny_smoke_run(name, trace, section):
    proc = _run(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace,
                 "--size", "tiny"])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH[section]}
    for m in BENCH[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "condbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "field-dense", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
