"""Linear-algebra kernel tests, with independent brute-force oracles for
the derived cases (characteristic-polynomial bisection for the norm,
Faddeev-LeVerrier + Durand-Kerner for eigenvalues, Gram-matrix
eigensolve for power norms)."""

import multiprocessing
import sys
import threading
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condspec import numkernel
from condspec.errors import ConvergenceError
from condspec.numkernel import (
    U_MACH,
    ComplexMatrix,
    _parts,
    as_matrix,
    condition_number,
    condition_ratio,
    eigen_decomposition,
    eigenvalues,
    power_norms,
    shifted_extremes,
    similarity_transform,
    singular_values,
    spectral_norm,
    svd,
)
from condspec.matrixio import generate
from condspec.spectra import GridSpec, compute_field
from condspec.theorems import numerical_range_boundary


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# --- oracles ----------------------------------------------------------------

def _det3(a):
    return (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))


def charpoly_norm_oracle(M):
    """sqrt of the largest root of det(M*M - x I), by sign scan + bisection
    on the explicitly expanded 3x3 characteristic polynomial."""
    H = M.conj().T @ M
    tr = float(np.trace(H).real)
    m2 = float(sum((H[i, i] * H[j, j] - H[i, j] * H[j, i]).real
                   for i in range(3) for j in range(i + 1, 3)))
    det = float(_det3(H).real)

    def p(x):
        return -x ** 3 + tr * x ** 2 - m2 * x + det

    hi = tr + 1.0
    step = hi / 20000.0
    x = hi
    while p(x) < 0:
        x -= step
    lo, up = x, x + step
    for _ in range(200):
        mid = 0.5 * (lo + up)
        if p(mid) >= 0:
            lo = mid
        else:
            up = mid
    return np.sqrt(lo)


def charpoly_coefficients(A):
    """Monic characteristic polynomial coefficients by the trace recursion
    (no eigenvalue or companion machinery involved)."""
    n = A.shape[0]
    Mk = np.zeros((n, n), dtype=complex)
    ck = 1.0 + 0j
    coeffs = [1.0 + 0j]
    eye = np.eye(n)
    for k in range(1, n + 1):
        Mk = A @ Mk + ck * eye
        ck = -np.trace(A @ Mk) / k
        coeffs.append(ck)
    return coeffs


def durand_kerner_roots(coeffs, iters=1000, tol=1e-14):
    """Simultaneous root iteration for a monic polynomial: a brute-force,
    companion-free root finder."""
    n = len(coeffs) - 1
    scale = 1.0 + max(abs(c) for c in coeffs)
    roots = (0.4 + 0.9j) ** np.arange(1, n + 1) * scale

    def p(x):
        y = 0j
        for c in coeffs:
            y = y * x + c
        return y

    for _ in range(iters):
        new = roots.copy()
        for i in range(n):
            denom = np.prod([roots[i] - roots[j] for j in range(n) if j != i])
            new[i] = roots[i] - p(roots[i]) / denom
        delta = float(np.max(np.abs(new - roots)))
        roots = new
        if delta < tol * scale:
            break
    return roots


def multiset_max_distance(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return min(max(abs(a[list(pi)] - b)) for pi in permutations(range(len(a))))


# --- ComplexMatrix -----------------------------------------------------------

def test_matrix_validation():
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ComplexMatrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((0, 0)))
    m = as_matrix([[1, 2], [3, 4]])
    assert m.n == 2
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0  # immutable


# --- spectral_norm ------------------------------------------------------------

def test_spectral_norm_identity():
    assert spectral_norm(np.eye(2)) == 1.0


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 0.5])) == 3.0


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("seed", [3, 17, 99])
def test_spectral_norm_charpoly_oracle(seed):
    M = random_complex(3, seed)
    expected = charpoly_norm_oracle(M)
    assert spectral_norm(M) == pytest.approx(expected, rel=1e-10)


# --- smallest singular value ----------------------------------------------------

def test_smallest_singular_value_examples():
    assert as_matrix(np.eye(2)).svals[-1] == 1.0
    assert as_matrix(np.diag([3.0, 0.5])).svals[-1] == 0.5
    assert as_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])).svals[-1] == 0.0


def test_svd_vectors_invariant():
    M = random_complex(4, 5)
    res = svd(M)
    s = res.singular_values
    assert np.all(np.diff(s) <= 0) and s[-1] >= 0
    for i in range(4):
        lhs = np.asarray(M) @ res.right_vectors[:, i]
        rhs = s[i] * res.left_vectors[:, i]
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * s[0]


# --- eigenvalues ----------------------------------------------------------------

def test_eigenvalues_diag():
    assert sorted(eigenvalues(np.diag([1.0, -1.0])).real) == [-1.0, 1.0]


def test_eigenvalues_nilpotent():
    w = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(w, 0.0)


@pytest.mark.parametrize("seed", [7, 21])
def test_eigenvalues_charpoly_oracle(seed):
    A = random_complex(4, seed)
    roots = durand_kerner_roots(charpoly_coefficients(A))
    assert multiset_max_distance(roots, eigenvalues(A)) < 1e-7


def test_eigenvalue_residual_invariant():
    A = random_complex(6, 11)
    scale = 1e-8 * (1 + spectral_norm(A))
    for lam in eigenvalues(A):
        smin = np.linalg.svd(lam * np.eye(6) - A, compute_uv=False)[-1]
        assert smin <= scale


def test_eigen_decomposition_rank():
    dec = eigen_decomposition(np.diag([1.0, 2.0, 3.0]))
    assert dec.vector_matrix_rank == 3
    defective = eigen_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert defective.vector_matrix_rank == 1
    A = random_complex(5, 2)
    dec = eigen_decomposition(A)
    res = A @ dec.right_vectors - dec.right_vectors * dec.eigenvalues[None, :]
    assert np.abs(res).max() <= 1e-9 * spectral_norm(A)


def test_hermitian_eigenvalues_real():
    A = random_complex(5, 8)
    H = A + A.conj().T
    assert np.abs(eigenvalues(H).imag).max() <= 1e-10


# --- condition_number -------------------------------------------------------------

def test_condition_number_unitary():
    q = generate("rotation", 3, angle=0.7)
    assert condition_number(q) == pytest.approx(1.0, abs=1e-12)


def test_condition_number_diag():
    assert condition_number(np.diag([4.0, 1.0])) == 4.0


def test_condition_number_singular():
    assert condition_number(np.array([[1.0, 1.0], [1.0, 1.0]])) == np.inf


def test_inverse_norm_reciprocal():
    M = random_complex(5, 13)
    inv_norm = spectral_norm(np.linalg.inv(M))
    assert as_matrix(M).svals[-1] * inv_norm == pytest.approx(1.0, rel=1e-10)


def test_norm_equals_smallest_for_1x1():
    m = as_matrix([[2.5 - 1j]])
    assert spectral_norm(m) == m.svals[-1]


# --- power_norms -----------------------------------------------------------------

def test_power_norms_zero_matrix():
    assert power_norms(np.zeros((2, 2)), 3).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_power_norms_diag():
    assert power_norms(np.diag([2.0, 1.0]), 3).tolist() == [1.0, 2.0, 4.0, 8.0]


def test_power_norms_transient_hump():
    A = np.array([[0.9, 5.0], [0.0, 0.9]])
    norms = power_norms(A, 20)
    assert norms.max() > 1.0
    assert norms[20] < norms.max()  # eventual decay past the hump
    for k in range(21):  # independent per-power oracle on the Gram matrix
        p = np.linalg.matrix_power(A, k)
        expected = np.sqrt(np.linalg.eigvalsh(p.conj().T @ p)[-1])
        assert norms[k] == pytest.approx(expected, rel=1e-10)


def test_power_norms_overflow_reported():
    norms = power_norms(np.diag([1e200, 1.0]), 3)
    assert norms[1] == 1e200 and np.isinf(norms[2]) and np.isinf(norms[3])


def test_power_norms_rejects_negative_kmax():
    with pytest.raises(ValueError):
        power_norms(np.eye(2), -1)


# --- facts cached on a ComplexMatrix ------------------------------------------------

@pytest.mark.parametrize("A", [random_complex(4, 7), generate("jordan", 5, value=0.9).entries,
                               np.array([[1e200, 1.0], [0.0, 1e200]])],
                         ids=["random4", "J5(0.9)", "overflowing"])
def test_power_norm_prefix_is_bitwise(A):
    # Powers are built one after another, so every shorter list is a prefix
    # of a longer one, overflow to +inf included; the cache relies on it.
    full = power_norms(A, 50)
    for k in (0, 1, 2, 7, 12, 50):
        assert power_norms(A, k).tobytes() == full[:k + 1].tobytes()
    m = as_matrix(A)
    m.power_norms_to(12)
    assert m.power_norms_to(50).tobytes() == full.tobytes()
    assert m.power_norms_to(7).tobytes() == full[:8].tobytes()
    with pytest.raises(ValueError):
        m.power_norms_to(-1)


def test_cached_facts_equal_the_functions_bitwise():
    A = random_complex(5, 3)
    m = ComplexMatrix(A)
    assert m.svals.tobytes() == singular_values(A).tobytes()
    assert m.norm == spectral_norm(A)
    assert m.eigvals.tobytes() == eigenvalues(A).tobytes()
    dec = eigen_decomposition(A)
    assert m.eigen.eigenvalues.tobytes() == dec.eigenvalues.tobytes()
    assert m.eigen.right_vectors.tobytes() == dec.right_vectors.tobytes()
    assert m.eigen.vector_matrix_rank == dec.vector_matrix_rank
    assert m.eigvals is m.eigvals and m.eigen is m.eigen  # computed once


def test_cached_facts_are_read_only():
    m = ComplexMatrix(random_complex(3, 1))
    facts = [m.svals, m.eigvals, m.eigen.eigenvalues, m.eigen.right_vectors,
             m.power_norms_to(4)]
    for a in facts:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


# --- property tests ----------------------------------------------------------------

finite = st.floats(-3, 3, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def small_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    re = draw(st.lists(st.lists(finite, min_size=n, max_size=n), min_size=n, max_size=n))
    im = draw(st.lists(st.lists(finite, min_size=n, max_size=n), min_size=n, max_size=n))
    return np.array(re) + 1j * np.array(im)


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_condition_number_at_least_one(A):
    assert condition_number(A) >= 1.0


@settings(max_examples=25, deadline=None)
@given(small_matrices(max_n=3), st.integers(0, 4), st.integers(0, 4))
def test_power_norm_submultiplicative(A, j, k):
    norms = power_norms(A, j + k)
    if np.isfinite(norms).all():
        assert norms[j + k] <= norms[j] * norms[k] * (1 + 1e-10) + 1e-300


@settings(max_examples=25, deadline=None)
@given(small_matrices(max_n=3), finite, finite)
def test_spectral_norm_scaling(A, cre, cim):
    c = complex(cre, cim)
    assert spectral_norm(c * A) == pytest.approx(abs(c) * spectral_norm(A), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_matrices(max_n=6), st.lists(st.tuples(finite, finite), max_size=5),
       st.integers(0, 5))
def test_shifted_extremes_matches_per_point_svd_bitwise(A, points, n_eigs):
    # Eigenvalues give singular or nearly singular shifts, where the
    # singularity rule is decided.
    m = as_matrix(A)
    zs = np.concatenate([np.array([complex(re, im) for re, im in points], dtype=np.complex128),
                         eigenvalues(m)[:n_eigs]])
    smin, smax = shifted_extremes(m, zs)
    expected = np.array([singular_values(m.shifted(z))[[-1, 0]] for z in zs]).reshape(-1, 2)
    assert np.array_equal(smin, expected[:, 0]) and np.array_equal(smax, expected[:, 1])


@st.composite
def gaussian_cases(draw, max_n=8):
    """A complex Gaussian matrix with n from 1 to max_n, and points: four
    uniform ones plus its eigenvalues, where the singularity rule is decided."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    zs = np.concatenate([rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4), eigenvalues(A)])
    return A, zs


@settings(max_examples=100, deadline=None)
@given(gaussian_cases(), st.sampled_from([-40, 40]))
def test_shifted_extremes_scale_exactly_by_powers_of_two(case, k):
    # 2**k (zI - A) is exact in floating point and LAPACK's SVD scales with it.
    A, zs = case
    s = 2.0 ** k
    smin, smax = shifted_extremes(A, zs)
    smin_s, smax_s = shifted_extremes(s * A, s * zs)
    assert np.array_equal(smin_s, s * smin) and np.array_equal(smax_s, s * smax)
    n = A.shape[0]
    assert np.array_equal(condition_ratio(smin_s, smax_s, n), condition_ratio(smin, smax, n))


@settings(max_examples=100, deadline=None)
@given(gaussian_cases())
def test_shifted_extremes_of_the_conjugate_transpose(case):
    # conj(z) I - A* is the conjugate transpose of zI - A: the same singular
    # values in exact arithmetic, a different rounding path in LAPACK.
    A, zs = case
    smin, smax = shifted_extremes(A, zs)
    smin_h, smax_h = shifted_extremes(A.conj().T, zs.conj())
    tol = 4 * A.shape[0] * U_MACH * smax
    assert (np.abs(smin_h - smin) <= tol).all() and (np.abs(smax_h - smax) <= tol).all()


BITWISE_CASES = [(2, 1100), (2, 1099), (96, 40), (128, 14)]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n, count", BITWISE_CASES)
def test_shifted_extremes_chunks_match_per_point_svd_bitwise(monkeypatch, threads, n, count):
    # 1100 points at n = 2 make 367, 367 and 366 on one worker and four of
    # 275 on two; 1099 make 367, 366 and 366 on one and three of 275 and one
    # of 274 on two.  At n = 96 and 128 the floor binds: 40 points make six
    # parts of 7 or 6 and 14 make 5, 5 and 4, above caps of 3 and 2.  Each
    # case spans at least three parts, so points on both sides of each
    # boundary are compared.
    parts = _parts(count, n, int(threads))
    assert len(parts) >= 3
    monkeypatch.setenv("CONDSPEC_THREADS", threads)
    m = as_matrix(random_complex(n, n))
    rng = np.random.default_rng(count)
    zs = rng.uniform(-3, 3, count) + 1j * rng.uniform(-3, 3, count)
    smin, smax = shifted_extremes(m, zs)
    expected = np.array([singular_values(m.shifted(z))[[-1, 0]] for z in zs])
    assert np.array_equal(smin, expected[:, 0]) and np.array_equal(smax, expected[:, 1])


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 512), st.integers(0, 5000), st.integers(1, 32))
def test_parts_split_evenly_above_the_gil_floor(n, count, workers):
    # numpy releases the GIL in a batched SVD of k n x n matrices only when
    # k*n > 500 (the floor).  One rule at every n: the fewest parts of at
    # most 512 points and 2**15 entries (the cap), raised to a multiple of
    # the workers, never below the floor, which wins where the two conflict.
    parts = _parts(count, n, workers)
    sizes = [p.stop - p.start for p in parts]
    bounds = [0] + [p.stop for p in parts]
    assert [p.start for p in parts] == bounds[:-1] and bounds[-1] == count
    assert (len(parts) == 0) == (count == 0) and min(sizes, default=1) >= 1
    cap, floor = max(1, min(512, 2**15 // n**2)), 500 // n + 1
    assert len(parts) <= 1 or min(sizes) * n > 500
    assert max(sizes, default=0) - min(sizes, default=0) <= 1 and sizes == sorted(sizes, reverse=True)
    assert max(sizes, default=0) <= max(cap, 2 * floor - 1)
    fewest = -(-count // cap)
    assert len(parts) == min(max(1, count // floor), -(-fewest // workers) * workers)


def test_where_the_cap_and_the_floor_conflict_the_floor_wins():
    # 961 nodes at n = 96 (cap 3, floor 6) make 160 parts of 6 or 7 points,
    # not 160 of 6 and one of 1, which would hold the GIL.
    sizes = [p.stop - p.start for p in _parts(961, 96, 2)]
    assert len(sizes) == 160 and set(sizes) == {6, 7}


def _pooled_case():
    # 1099 points at n = 2 take three or four parts: a multi-part call on
    # any worker count above one.
    rng = np.random.default_rng(8)
    return as_matrix(random_complex(2, 8)), rng.uniform(-3, 3, 1099) + 1j * rng.uniform(-3, 3, 1099)


def test_multi_part_calls_reuse_one_pool(monkeypatch):
    monkeypatch.setenv("CONDSPEC_THREADS", "2")
    m, zs = _pooled_case()
    expected = shifted_extremes(m, zs)
    pool, threads = numkernel._pool[2], threading.active_count()
    for _ in range(20):
        got = shifted_extremes(m, zs)
        numerical_range_boundary(m, 1099)
    assert numkernel._pool[2] is pool
    assert threading.active_count() <= threads + 1  # at most the pool's second worker is new
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_a_new_thread_count_replaces_the_pool_and_shuts_the_old_one_down(monkeypatch):
    m, zs = _pooled_case()
    pools = []
    for threads in ("8", "2", "8"):
        monkeypatch.setenv("CONDSPEC_THREADS", threads)
        shifted_extremes(m, zs)
        pools.append(numkernel._pool[2])
    assert len({id(p) for p in pools}) == 3
    for old in pools[:2]:
        with pytest.raises(RuntimeError, match="shutdown"):
            old.submit(int)


def test_a_bad_thread_count_raises_while_a_pool_is_alive(monkeypatch):
    m, zs = _pooled_case()
    monkeypatch.setenv("CONDSPEC_THREADS", "2")
    shifted_extremes(m, zs)
    pool = numkernel._pool[2]
    for bad in ("zero", "0"):
        monkeypatch.setenv("CONDSPEC_THREADS", bad)
        with pytest.raises(ValueError, match="CONDSPEC_THREADS"):
            shifted_extremes(m, zs)
    monkeypatch.setenv("CONDSPEC_THREADS", "2")
    shifted_extremes(m, zs)
    assert numkernel._pool[2] is pool


def _send_extremes(conn, m, zs):
    conn.send(shifted_extremes(m, zs))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_builds_its_own_pool(monkeypatch):
    # The child inherits the parent's pool object but none of its threads:
    # work queued on it would never run.
    monkeypatch.setenv("CONDSPEC_THREADS", "2")
    m, zs = _pooled_case()
    expected = shifted_extremes(m, zs)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_extremes, args=(send, m, zs))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child did not answer within 60 s"
        got = recv.recv()
    finally:
        recv.close()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert not child.is_alive() and child.exitcode == 0
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_workers_build_chunks_in_their_own_buffers(monkeypatch):
    # 8 workers on any core count, switching threads every microsecond: an
    # array shared between parts would let one part's z*I - A overwrite
    # another's while its SVD runs.
    m = as_matrix(random_complex(40, 5))
    rng = np.random.default_rng(5)
    zs = rng.uniform(-3, 3, 300) + 1j * rng.uniform(-3, 3, 300)
    monkeypatch.setenv("CONDSPEC_THREADS", "1")
    expected = shifted_extremes(m, zs)
    monkeypatch.setenv("CONDSPEC_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = shifted_extremes(m, zs)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_field_memory_is_bounded_per_worker(monkeypatch):
    # n = 128 on a 9 x 9 grid: 20 parts of 4 or 5 points on 2 workers, each
    # building z*I - A in a fresh array of about 1 MiB, so about 2.9 MiB in
    # all; a part that kept its array past its SVD, or made a second
    # temporary, would add about 1 MiB for every part in flight.  The bound
    # lies between the two: under pytest the in-place build peaked at
    # 2.84-2.91 MiB and `z*eye - a` as one expression at 3.78-5.09 MiB.
    monkeypatch.setenv("CONDSPEC_THREADS", "2")
    A = generate("random", 128, seed=3)
    grid = GridSpec.square(3.0, 9)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compute_field(A, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 3.5 * 2**20


def test_shifted_extremes_empty_points():
    smin, smax = shifted_extremes(np.eye(3), np.array([], dtype=np.complex128))
    assert smin.shape == (0,) and smax.shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf), complex(np.nan, 1)])
def test_shifted_extremes_rejects_nonfinite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        shifted_extremes(np.eye(2), [0.5, bad])


def test_convergence_error_type_exists():
    assert issubclass(ConvergenceError, Exception)


@settings(max_examples=100, deadline=None)
@given(gaussian_cases(), st.integers(0, 2**32 - 1))
def test_shifted_extremes_under_permutation_similarity(case, seed):
    # P A P^T only reorders entries, so zI - P A P^T = P (zI - A) P^T exactly;
    # LAPACK sees a reordered matrix and may round differently.
    A, zs = case
    p = np.random.default_rng(seed).permutation(A.shape[0])
    smin, smax = shifted_extremes(A, zs)
    smin_p, smax_p = shifted_extremes(A[p][:, p], zs)
    tol = 4 * A.shape[0] * U_MACH * smax
    assert (np.abs(smin_p - smin) <= tol).all() and (np.abs(smax_p - smax) <= tol).all()


def _failing_lapack(*args, **kwargs):
    raise np.linalg.LinAlgError("no convergence")


@pytest.mark.parametrize("routine, call, message", [
    ("svd", lambda: singular_values(np.eye(2)), "SVD did not converge"),
    ("svd", lambda: svd(np.eye(2)), "SVD did not converge"),
    ("svd", lambda: shifted_extremes(np.eye(2), [0.5]), "SVD did not converge"),
    ("eigvals", lambda: eigenvalues(np.eye(2)), "eigenvalue iteration did not converge"),
    ("eig", lambda: eigen_decomposition(np.eye(2)), "eigenvalue iteration did not converge"),
    ("svd", lambda: eigen_decomposition(np.eye(2)), "SVD did not converge"),
    ("svd", lambda: power_norms(2 * np.eye(2), 3), "SVD did not converge"),
    ("eigh", lambda: numerical_range_boundary(np.eye(2), 8), "Hermitian eigensolve failed"),
], ids=["singular_values", "svd", "shifted_extremes", "eigenvalues", "eigen_decomposition",
        "eigen_decomposition-vectors", "power_norms", "numerical_range_boundary"])
def test_lapack_failure_raises_convergence_error(monkeypatch, routine, call, message):
    monkeypatch.setattr(np.linalg, routine, _failing_lapack)
    with pytest.raises(ConvergenceError) as exc:
        call()
    assert str(exc.value) == f"{message}: no convergence"
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("s, a, b", [
    ([[2.0]], [[5e-324]], [[5e-324]]),
    ([[1.0, 0], [0, 4.0]], [[5e-324, 1 + 2j], [8e-323, -3.0]], [[5e-324, 4 + 8j], [2e-323, -3.0]]),
], ids=["1x1-subnormal", "2x2-diag"])
def test_similarity_transform_scales_by_a_diagonal_s_exactly(s, a, b):
    # entry (i, j) times s_j / s_i: one exact product for powers of 2
    assert np.array_equal(similarity_transform(np.array(s), np.array(a)).entries, b)


def test_similarity_transform_solves_for_a_non_diagonal_s():
    s = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    a = np.array([[1.0, 2.0j], [3.0, 4.0]])
    assert similarity_transform(s, a).entries.tobytes() == (np.linalg.solve(s, a) @ s).tobytes()
