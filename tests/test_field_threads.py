"""The field's one level of parallelism: bytes at any thread setting, and
the OpenBLAS pin saved, set and restored around every field and suite."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from condspec import spectra, theorems
from condspec.matrixio import generate, write_matrix
from condspec.spectra import GridSpec, compute_field

GRID = GridSpec.square(3.0, 7)

controls = spectra._openblas_thread_controls()
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
from condspec.spectra import GridSpec, compute_field
for n in (72, 96):
    A = generate("random", n, seed=11)
    for grid in (GridSpec.square(3.0, 7), GridSpec.auto(A, 0.1, n=7)):
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
    seen = []
    inner = spectra.shifted_extremes

    def recording(m, zs):
        seen.append(_blas_counts())
        return inner(m, zs)

    monkeypatch.setattr(spectra, "shifted_extremes", recording)
    compute_field(generate("random", 8, seed=1), GRID)
    assert len(seen) == GRID.nx
    assert all(counts == [1] * len(controls) for counts in seen)
    assert _blas_counts() == [2] * len(controls)


@needs_openblas
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_pin_restored_when_field_raises(blas_at_two):
    with pytest.raises(ValueError):
        compute_field(np.array([[1e308]]), GridSpec.square(1e308, 3))
    assert _blas_counts() == [2] * len(controls)
    assert _pin_lock_free()


def _pin_lock_free() -> bool:
    """Whether another thread can take the pin lock without blocking."""
    got = []

    def probe():
        got.append(spectra._BLAS_PIN_LOCK.acquire(blocking=False))
        if got[0]:
            spectra._BLAS_PIN_LOCK.release()

    t = threading.Thread(target=probe)
    t.start()
    t.join(timeout=10)
    return got == [True]


@needs_openblas
def test_suite_runs_pinned_and_restores(blas_at_two, monkeypatch):
    # The suite's field and auto grid pin again on the same thread; the
    # nested pins leave the count at 1 until the suite returns.
    seen = []
    inner = theorems.check_t1

    def recording(**kwargs):
        seen.append(_blas_counts())
        return inner(**kwargs)

    monkeypatch.setattr(theorems, "check_t1", recording)
    theorems.run_suite(generate("random", 4, seed=1), [0.1], theorems=["t1"], grid=7,
                       companions=False)
    assert seen == [[1] * len(controls)]
    assert _blas_counts() == [2] * len(controls)
    assert _pin_lock_free()


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
