"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The corpus (fixed matrices plus 50 seeded random ones) and its per-matrix
fields are shared across criteria through module-scoped fixtures.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from condspec.errors import GridTooSmallError
from condspec.matrixio import generate, write_matrix
from condspec.numkernel import ComplexMatrix, as_matrix, eigenvalues, singular_values, spectral_norm
from condspec.spectra import (
    GridSpec,
    auto_grid,
    compute_field,
    condition_number_at,
    condition_spectral_radius,
    field_for,
    in_condition_spectrum,
)
from condspec.theorems import run_suite, sample_points, check_t5e
from condspec.witness import check_equivalence, membership_from_perturbation, witness_perturbation

EPS_SWEEP = (0.05, 0.2, 0.4)


def _report(num, ok, desc):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.fixture(scope="module")
def corpus():
    mats = [
        ("diag(1,-1)", np.diag([1.0, -1.0])),
        ("identity", np.eye(2)),
        ("zero", np.zeros((2, 2))),
    ]
    for n in (2, 4, 8):
        mats.append((f"J{n}(0)", generate("jordan", n, value=0.0).entries))
        mats.append((f"J{n}(0.9)", generate("jordan", n, value=0.9).entries))
    for i in range(50):
        n = 2 + i % 5
        mats.append((f"random{i}(n={n})", generate("random", n, seed=2000 + i).entries))
    return mats


@pytest.fixture(scope="module")
def corpus_results(corpus):
    """Per matrix: the shared field (eps-independent) and the full suite
    reports over the eps sweep.  Timed for criterion 3."""
    t0 = time.perf_counter()
    results = []
    for i, (name, A) in enumerate(corpus):
        m = ComplexMatrix(A)
        grid = auto_grid(m, max(EPS_SWEEP), 161)
        reports = run_suite(m, EPS_SWEEP, grid=grid, samples=24, seed=i)
        results.append((name, A, field_for(m, grid, max(EPS_SWEEP)), reports))
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_1_equivalence_suite():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    disagreements = []
    witness_violations = []
    for i in range(200):
        n = 2 + i % 5
        A = _random_matrix(n, 10_000 + i)
        eps = float(rng.uniform(0.05, 0.5))
        field = compute_field(A, auto_grid(A, eps, 61))
        norm_a = spectral_norm(A)
        for z in sample_points(A, field, eps, 20, seed=i):
            z = complex(z)
            rep = check_equivalence(A, z, eps)
            if not rep.passed:
                disagreements.append((i, z, eps, rep.details))
            if in_condition_spectrum(A, z, eps):
                w = witness_perturbation(A, z, eps)
                smax = float(singular_values(as_matrix(A).shifted(z))[0])
                if spectral_norm(w.E) > eps * smax * (1 + 1e-12):
                    witness_violations.append((i, z, "norm"))
                shifted = (A + w.E.entries) - z * np.eye(n)
                if np.linalg.svd(shifted, compute_uv=False)[-1] > 1e-8 * (1 + norm_a):
                    witness_violations.append((i, z, "eigen"))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and not witness_violations and elapsed < 60.0
    _report(1, ok, f"equivalence theorem: 200 matrices x 20 z, "
                   f"{len(disagreements)} disagreements, "
                   f"{len(witness_violations)} witness violations, {elapsed:.1f}s (< 60s)")


def test_criterion_2_closed_form_oracle():
    A = np.diag([1.0, -1.0])
    grid = GridSpec(-3, 3, -3, 3, 401, 401)
    field = compute_field(A, grid)
    nodes = grid.nodes()
    d1 = np.abs(nodes - 1.0)
    d2 = np.abs(nodes + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(d1, d2) / np.minimum(d1, d2)
    ratio[np.minimum(d1, d2) == 0] = np.inf

    total_mismatches = 0
    for eps in (0.2, 0.5):
        numeric = field.member_mask(eps)
        analytic = ratio >= 1.0 / eps
        # exclude nodes whose 8-neighborhood straddles the analytic level set
        padded = np.pad(analytic, 1, mode="edge")
        stable = np.ones_like(analytic)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                stable &= padded[1 + dx:402 + dx, 1 + dy:402 + dy] == analytic
        total_mismatches += int(((numeric != analytic) & stable).sum())
    ok = total_mismatches == 0
    _report(2, ok, f"401x401 grid membership vs analytic Apollonius condition: "
                   f"{total_mismatches} mismatches away from the level set")


def test_criterion_3_theorem_suite_on_corpus(corpus_results):
    results, elapsed = corpus_results
    failures = []
    for name, _, _, reports in results:
        for r in reports:
            if not r.passed and "σ" in r.theorem_id:
                failures.append((name, r.theorem_id, r.lhs, r.rhs))
    n_checks = sum(sum(1 for r in reports if "σ" in r.theorem_id)
                   for _, _, _, reports in results)
    ok = not failures and elapsed < 300.0
    _report(3, ok, f"T1σ..T10σ over {len(results)}-matrix corpus x eps {EPS_SWEEP}: "
                   f"{n_checks} checks, {len(failures)} failures, {elapsed:.1f}s (< 300s)")
    if failures:
        for f in failures[:10]:
            print("  failed:", f)


def test_criterion_4_limit_reduction(corpus_results):
    # Known-red criterion: a defective Jordan block J_n converges at rate
    # eps^(1/n), so at eps = 1e-6 the n = 8 blocks keep a radius-0.18 blob
    # around the eigenvalue, which no grid fine enough for the rest of the
    # suite can squeeze into 2 cells.  Diagonalizable corpus members pass.
    results, _ = corpus_results
    eps = 1e-6
    per_matrix = []
    for name, A, field, _ in results:
        members = field.grid.nodes()[field.member_mask(eps)]
        if members.size == 0:
            continue
        eig = eigenvalues(A)
        hd = float(np.abs(members[:, None] - eig[None, :]).min(axis=1).max())
        per_matrix.append((hd / field.grid.cell_diagonal(), name))
    per_matrix.sort(reverse=True)
    worst = per_matrix[0][0] if per_matrix else 0.0
    offenders = [f"{name}: {cells:.2f}" for cells, name in per_matrix if cells > 2.0]
    ok = worst <= 2.0
    _report(4, ok, f"eps = 1e-6 classified nodes within 2 grid cells of the "
                   f"eigenvalue set; worst {worst:.2f} cells"
                   + (f"; over budget: {offenders}" if offenders else ""))


def test_criterion_5_t10_value_exactness():
    rng = np.random.default_rng(777)
    worst = 0.0
    compared = 0
    for i in range(1000):
        n = 2 + i % 5
        A = _random_matrix(n, 20_000 + i)
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        beta = complex(rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        z = alpha + beta * w
        v1 = condition_number_at(alpha * np.eye(n) + beta * A, z)
        v2 = condition_number_at(A, (z - alpha) / beta)
        if np.isinf(v1) or np.isinf(v2):
            continue
        compared += 1
        worst = max(worst, abs(v1 - v2) / max(v1, v2))
    ok = worst <= 1e-10 and compared >= 990
    _report(5, ok, f"T10 value equality over {compared} samples: "
                   f"worst relative difference {worst:.3e} (<= 1e-10)")


def test_criterion_6_pseudospectrum_companions(corpus_results):
    results, _ = corpus_results
    failures = []
    for name, _, _, reports in results:
        for r in reports:
            if not r.passed and "ε" in r.theorem_id:
                failures.append((name, r.theorem_id))
    required = {"T1ε", "T2ε", "T4ε", "T8ε", "T10ε"}
    seen = set()
    for _, _, _, reports in results:
        seen |= {r.theorem_id for r in reports if not r.skipped}
    missing = required - seen

    t5e_failures = 0
    for i in range(20):
        n = 2 + i % 4
        A = _random_matrix(n, 30_000 + i)
        S = np.eye(n, dtype=complex) + 0.5 * _random_matrix(n, 31_000 + i)
        if not np.isfinite(np.linalg.cond(S)):
            continue
        if not check_t5e(A, S, 0.3, seed=i).passed:
            t5e_failures += 1
    ok = not failures and not missing and t5e_failures == 0
    _report(6, ok, f"pseudospectrum companions on the corpus: "
                   f"{len(failures)} failures, missing={sorted(missing)}, "
                   f"T5ε failures over 20 (A,S) pairs: {t5e_failures}")


def test_criterion_7_negative_controls(tmp_path):
    A = np.diag([1.0, -1.0])
    # (a) deliberately oversized certificate is rejected
    w = witness_perturbation(A, 0.9, 0.5)
    smax = float(singular_values(as_matrix(A).shifted(0.9))[0])
    oversized = w.E.entries * (2 * 0.5 * smax / spectral_norm(w.E))
    rejected = not membership_from_perturbation(A, 0.9, oversized, 0.5)

    # (b) grid not covering the bounding disk raises grid-too-small
    try:
        condition_spectral_radius(A, 0.5, GridSpec(-1, 1, -1, 1, 21, 21))
        grid_error = False
    except GridTooSmallError:
        grid_error = True

    # (c) explicit T5 with kappa(S)^2 eps >= 1 exits 2 through the CLI
    mpath = tmp_path / "A.json"
    write_matrix(A, mpath)
    proc = subprocess.run(
        [sys.executable, "-m", "condspec", "verify", "--matrix", str(mpath),
         "--eps", "0.4", "--theorems", "t5", "--grid", "81",
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True)
    exit2 = proc.returncode == 2

    ok = rejected and grid_error and exit2
    _report(7, ok, f"negative controls: oversized certificate rejected={rejected}, "
                   f"grid-too-small raised={grid_error}, T5 precondition exit 2={exit2}")


def test_criterion_8_byte_determinism(tmp_path):
    mpath = tmp_path / "A.json"
    write_matrix(_random_matrix(3, 999), mpath)
    outputs = []
    for threads in ("1", "4"):
        for run in ("a", "b"):
            outdir = tmp_path / f"out_{threads}_{run}"
            rep = tmp_path / f"rep_{threads}_{run}.json"
            svg = tmp_path / f"fig_{threads}_{run}.svg"
            env = dict(os.environ, CONDSPEC_THREADS=threads)
            for cmd in (
                ["compute", "--matrix", str(mpath), "--eps", "0.1,0.3",
                 "--kind", "both", "--grid", "61", "--out", str(outdir)],
                ["verify", "--matrix", str(mpath), "--eps", "0.2",
                 "--grid", "61", "--seed", "5", "--out", str(rep)],
                ["plot", "--field", str(outdir / "field.csv"),
                 "--contours", str(outdir / "contours_condition.json"),
                 "--contours", str(outdir / "contours_pseudo.json"),
                 "--matrix", str(mpath), "--out", str(svg)],
            ):
                proc = subprocess.run([sys.executable, "-m", "condspec", *cmd],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
            outputs.append((
                (outdir / "field.csv").read_bytes(),
                (outdir / "contours_condition.json").read_bytes(),
                (outdir / "contours_pseudo.json").read_bytes(),
                rep.read_bytes(),
                svg.read_bytes(),
            ))
    ok = all(o == outputs[0] for o in outputs[1:])
    _report(8, ok, "compute+verify+plot byte-identical across 2 runs x "
                   "CONDSPEC_THREADS in {1, 4}")
