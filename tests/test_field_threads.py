"""The evaluator's one level of parallelism: bytes at any thread setting,
and the OpenBLAS pin saved, set and restored around every numkernel call,
whether a suite or a field makes it."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from condspec import numkernel, theorems
from condspec.matrixio import generate, write_matrix
from condspec.spectra import GridSpec, compute_field

GRID = GridSpec.square(3.0, 7)

controls = numkernel._openblas_thread_controls()
needs_openblas = pytest.mark.skipif(not controls, reason="no OpenBLAS thread-count entry points")


def _blas_counts():
    return [get() for get, _ in controls]


@pytest.fixture()
def blas_at_two():
    """Every loaded OpenBLAS at 2 threads, so a pin left behind shows."""
    saved = _blas_counts()
    try:
        for _, set_ in controls:
            set_(2)
        assert _blas_counts() == [2] * len(controls)
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


def _field_bytes(f):
    return f.sigma_min.tobytes() + f.sigma_max.tobytes() + f.ratio.tobytes()


# Fields on a fixed grid and on the auto grid, whose radius comes from ||A||.
_HASH_FIELDS = """
import hashlib
from condspec.matrixio import generate
from condspec.spectra import GridSpec, auto_grid, compute_field
for n in (72, 96):
    A = generate("random", n, seed=11)
    for grid in (GridSpec.square(3.0, 7), auto_grid(A, 0.1, 7)):
        f = compute_field(A, grid)
        print(n, grid.re_max.hex(),
              hashlib.sha256(f.sigma_min.tobytes() + f.sigma_max.tobytes()).hexdigest())
"""


@needs_openblas
def test_field_bytes_independent_of_both_thread_variables():
    # At n = 72 and 96 a multi-threaded OpenBLAS rounds the SVD differently,
    # in the field and in the ||A|| that sizes the auto grid; both are pinned.
    outputs = {}
    for pool in ("1", "2"):
        for blas in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       CONDSPEC_THREADS=pool, OPENBLAS_NUM_THREADS=blas)
            out = subprocess.run([sys.executable, "-c", _HASH_FIELDS], capture_output=True,
                                 text=True, env=env, check=True, timeout=300)
            outputs[(pool, blas)] = out.stdout
    assert len(outputs[("1", "1")].splitlines()) == 4
    assert len(set(outputs.values())) == 1, outputs


@needs_openblas
def test_pin_holds_during_field_and_is_restored(blas_at_two, monkeypatch):
    # n = 72 cuts the 49 nodes into chunks of 7, which run on the pool.
    seen = []
    inner = numkernel._extremes

    def recording(a, z, *args):
        seen.append((_blas_counts(), z.copy()))
        return inner(a, z, *args)

    monkeypatch.setattr(numkernel, "_extremes", recording)
    compute_field(generate("random", 72, seed=11), GRID)
    assert len(seen) > 1
    assert all(counts == [1] * len(controls) for counts, _ in seen)
    covered = np.sort_complex(np.concatenate([z for _, z in seen]))
    assert np.array_equal(covered, np.sort_complex(GRID.nodes().reshape(-1)))
    assert _blas_counts() == [2] * len(controls)


@needs_openblas
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_pin_restored_when_field_raises(blas_at_two):
    with pytest.raises(ValueError):
        compute_field(np.array([[-1e308]]), GridSpec(0.0, 1e308, 0.0, 1.0, 3, 3))
    assert _blas_counts() == [2] * len(controls)
    assert _pin_lock_free()


def _pin_lock_free() -> bool:
    """Whether another thread can take the pin lock without blocking."""
    got = []

    def probe():
        got.append(numkernel._BLAS_PIN_LOCK.acquire(blocking=False))
        if got[0]:
            numkernel._BLAS_PIN_LOCK.release()

    t = threading.Thread(target=probe)
    t.start()
    t.join(timeout=10)
    return got == [True]


@needs_openblas
def test_suite_runs_pinned_and_restores(blas_at_two, monkeypatch):
    # run_suite holds no pin of its own: each numkernel call pins, and at
    # n = 72 the field's SVDs and T9's eigh batches run on pool workers.
    seen = []
    for name in ("svd", "eigh"):
        def recording(*args, _inner=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append((_name, _blas_counts()))
            return _inner(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    theorems.run_suite(generate("random", 72, seed=11), [0.1], theorems=["t1", "t9"], grid=7)
    assert {name for name, _ in seen} == {"svd", "eigh"}
    assert [counts for _, counts in seen if counts != [1] * len(controls)] == []
    assert _blas_counts() == [2] * len(controls)
    assert _pin_lock_free()


def test_range_sweep_bytes_independent_of_pool_size(monkeypatch):
    # n = 65 cuts 257 angles into 33 eigh batches of at most 8 points.
    A = generate("random", 65, seed=165)
    batches = []
    inner = np.linalg.eigh

    def recording(h):
        batches.append(len(h))
        return inner(h)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    points = {}
    for pool in ("1", "2"):
        monkeypatch.setenv("CONDSPEC_THREADS", pool)
        points[pool] = theorems.numerical_range_boundary(A, 257).boundary_points.tobytes()
    assert sorted(batches) == [1, 1] + [8] * 64
    assert points["1"] == points["2"]


@needs_openblas
def test_verify_report_bytes_independent_of_both_thread_variables(tmp_path):
    # At n = 72 a multi-threaded OpenBLAS rounds the norms, eigenvalues,
    # matrix powers and samples of the suite differently; run_suite pins it.
    matrix = tmp_path / "a.json"
    write_matrix(generate("random", 72, seed=11), matrix)
    reports = {}
    for pool in ("1", "2"):
        for blas in ("1", "2"):
            out = tmp_path / f"report_{pool}{blas}.json"
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       CONDSPEC_THREADS=pool, OPENBLAS_NUM_THREADS=blas)
            subprocess.run([sys.executable, "-m", "condspec", "verify", "--matrix", str(matrix),
                            "--eps", "0.1", "--grid", "21", "--samples", "4", "--out", str(out)],
                           capture_output=True, env=env, check=True, timeout=300)
            reports[(pool, blas)] = out.read_bytes()
    differ = [key for key, report in reports.items() if report != reports[("1", "1")]]
    assert differ == []


# Checks called on their own, outside run_suite: every numkernel call pins.
_STANDALONE_CHECKS = """
import json
from condspec import theorems
from condspec.matrixio import generate
from condspec.spectra import GridSpec
A = generate("random", 72, seed=11)
for name in ("check_t2", "check_t4", "check_t8", "check_t9"):
    report = getattr(theorems, name)(A, 0.1, grid=GridSpec.square(14.0, 9))
    print(json.dumps(report.to_dict(), sort_keys=True))
"""


@needs_openblas
def test_standalone_check_bytes_independent_of_blas_threads():
    outputs = {}
    for blas in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=blas)
        out = subprocess.run([sys.executable, "-c", _STANDALONE_CHECKS], capture_output=True,
                             text=True, env=env, check=True, timeout=300)
        outputs[blas] = out.stdout
    assert len(outputs["1"].splitlines()) == 4
    assert outputs["1"] == outputs["2"]


# At n = 128 a multi-threaded OpenBLAS rounds W(A)'s batched eigh and T5's
# solve and product differently (at n = 72 it does not); both take the pin.
_RANGE_AND_T5 = """
import hashlib, json
import numpy as np
from condspec import theorems
from condspec.matrixio import generate
A = generate("random", 128, seed=11)
print(hashlib.sha256(theorems.numerical_range_boundary(A).boundary_points.tobytes()).hexdigest())
S = np.eye(128) + 0.02 * np.random.default_rng(3).standard_normal((128, 128))
report = theorems.check_t5(A, S, 0.01, z_samples=A.eigvals[:8] + 0.05)
print(json.dumps(report.to_dict(), sort_keys=True))
"""


@needs_openblas
def test_range_boundary_and_t5_bytes_independent_of_blas_threads():
    outputs = {}
    for blas in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=blas)
        out = subprocess.run([sys.executable, "-c", _RANGE_AND_T5], capture_output=True,
                             text=True, env=env, check=True, timeout=300)
        outputs[blas] = out.stdout
    assert len(outputs["1"].splitlines()) == 2
    assert outputs["1"] == outputs["2"]


@needs_openblas
def test_concurrent_fields_keep_bytes_and_restore_pin(blas_at_two):
    A = generate("random", 72, seed=11)
    expected = _field_bytes(compute_field(A, GRID))
    results = [None] * 4
    errors = []

    def work(i):
        try:
            results[i] = _field_bytes(compute_field(A, GRID))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(r == expected for r in results)
    assert _blas_counts() == [2] * len(controls)


# The half field of a real A against one full shifted_extremes over every
# node.  -0.0 imaginary parts are set through .imag: r + 1j*imag loses them.
_HALF_FIELDS = """
import hashlib
import numpy as np
from condspec.matrixio import generate
from condspec.numkernel import shifted_extremes
from condspec.spectra import GridSpec, compute_field
rng = np.random.default_rng(5)
for n in (2, 3, 8, 33, 64, 96, 128):
    gauss = rng.standard_normal((n, n))
    signed = np.empty((n, n), dtype=complex)
    signed.real, signed.imag = rng.standard_normal((n, n)), -0.0
    mats = {"J(0)": generate("jordan", n).entries, "J(0.9)": generate("jordan", n, value=0.9).entries,
            "diag": np.diag(np.linspace(-1.0, 1.0, n)), "zero": np.zeros((n, n)),
            "identity": np.eye(n), "gauss": gauss, "signed": signed}
    for name, A in mats.items():
        r = 1.2 * np.abs(np.linalg.eigvals(A)).max() + 0.5
        for ny in ((7, 8) if n >= 64 else (7, 8, 40, 41)):
            grid = GridSpec(-r, r, -r, r, 3 if n >= 64 else 9, ny)
            f = compute_field(A, grid)
            full = shifted_extremes(A, grid.nodes())
            same = all(a.tobytes() == b.tobytes() for a, b in zip((f.sigma_min, f.sigma_max), full))
            digest = hashlib.sha256(f.sigma_min.tobytes() + f.sigma_max.tobytes()).hexdigest()
            print(n, name, ny, same, digest)
"""


@needs_openblas
def test_half_field_of_real_matrix_equals_full_computation_bitwise():
    # Mirror columns are copies; conj(z)I - A and zI - A give the same bits
    # with this LAPACK's sign-symmetric complex arithmetic.
    outputs = {}
    for pool in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), CONDSPEC_THREADS=pool)
        out = subprocess.run([sys.executable, "-c", _HALF_FIELDS], capture_output=True,
                             text=True, env=env, check=True, timeout=300)
        outputs[pool] = out.stdout.splitlines()
    assert len(outputs["1"]) == 4 * 7 * 4 + 3 * 7 * 2  # (n, matrix, ny) cases
    assert [line for line in outputs["1"] if " True " not in line] == []
    assert outputs["1"] == outputs["2"]


# The certified field verify reads: its lattice and its undecided nodes go
# through the pool like every batch, so its answers, and the nodes it
# evaluates, are the same at any pool size, and they are the evaluated field's.
_CERTIFIED_ANSWERS = """
import hashlib
from condspec.matrixio import generate
from condspec.spectra import CONDITION, PSEUDO, auto_grid, compute_field, field_for
for A, nodes in ((generate("random", 4, seed=3), 161), (generate("jordan", 6, value=0.9), 161),
                 (generate("random", 72, seed=11), 21)):
    grid = auto_grid(A, 0.4, nodes)
    certified, full = field_for(A, grid, 0.4), compute_field(A.entries, grid)
    digest, same = hashlib.sha256(), True
    for e in (0.05, 0.2, 0.4):
        for kind in (CONDITION, PSEUDO):
            answers = [(f.member_mask(e, kind).tobytes(), f.band_nodes(e, kind).tobytes())
                       for f in (certified, full)]
            digest.update(b"".join(answers[0]))
            same = same and answers[0] == answers[1]
    print(A.n, certified.nodes_evaluated, same, digest.hexdigest())
"""


def test_certified_answers_independent_of_pool_size():
    outputs = {}
    for pool in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), CONDSPEC_THREADS=pool)
        out = subprocess.run([sys.executable, "-c", _CERTIFIED_ANSWERS], capture_output=True,
                             text=True, env=env, check=True, timeout=300)
        outputs[pool] = out.stdout.splitlines()
    assert len(outputs["1"]) == 3
    assert [line for line in outputs["1"] if " True " not in line] == []
    assert outputs["1"] == outputs["2"]


def test_threads_sharing_a_certified_field_get_the_evaluated_answers():
    # Queries race on one field: each thread's answer comes from the state
    # its own evaluation returned, so a state replaced by another thread
    # costs evaluations, never a wrong answer.
    from condspec.spectra import CONDITION, PSEUDO, SpectralField

    A = generate("random", 4, seed=21).entries
    grid = GridSpec.square(3.0, 61)
    full = compute_field(A, grid)
    field = SpectralField.of(A, grid)
    queries = [(e, kind) for e in (0.05, 0.1, 0.2, 0.3, 0.4) for kind in (CONDITION, PSEUDO)]
    wrong, errors = [], []

    def work(i):
        try:
            for e, kind in queries[i::4] + queries[::-1]:
                if (field.member_mask(e, kind).tobytes() != full.member_mask(e, kind).tobytes()
                        or field.band_nodes(e, kind).tobytes() != full.band_nodes(e, kind).tobytes()):
                    wrong.append((e, kind.name))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []
    assert field.sigma_min.tobytes() == full.sigma_min.tobytes()
    assert field.ratio.tobytes() == full.ratio.tobytes()
