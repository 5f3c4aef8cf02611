"""Dense complex linear-algebra primitives in the spectral (2-)norm.

The whole package measures matrices in the operator 2-norm: the norm of a
matrix is its largest singular value, the norm of its inverse is the
reciprocal of the smallest one, and condition numbers are ratios of extreme
singular values.  This norm choice is fixed for the library and is what
makes condition numbers and near-null witness vectors directly computable
from an SVD.

This module is the only one that calls LAPACK.  Every call runs with
every loaded OpenBLAS pinned to one thread (a multi-threaded SVD rounds
differently from n ~ 64 on), so concurrent calls run one after another.
The batched calls, sigma(zI - A) at many z and the W(A) sweep at many
angles, cut their points by one rule (_parts) into nearly equal parts, run
on one process-wide pool; each part builds its own arrays and keeps no
state between calls, and each point is solved on its own, so its bits do
not depend on the split.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError

# Unit roundoff of IEEE double precision (half the machine epsilon).
U_MACH = float(np.finfo(np.float64).eps) / 2.0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _memo(facts: dict, key, make):
    """facts[key], made by make() on first use.  No lock (a lock held while
    make() waits for the BLAS pin could deadlock against a thread that holds
    the pin): threads racing on one key compute the same bits, and
    setdefault keeps one result."""
    try:
        return facts[key]
    except KeyError:
        return facts.setdefault(key, make())


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Immutable square matrix of finite complex numbers.

    Facts of A (singular values, norm, eigenvalues, eigendecomposition, power
    norms; spectra adds the field of the last grid asked for, theorems the
    W(A) polygon) are computed on first use and kept on the instance,
    read-only: it is shared, so a caller writing into one would change every
    later reader's answer.
    A raw array wrapped anew starts with no facts.
    """

    entries: np.ndarray
    _facts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.complex128, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"matrix must be square with n >= 1, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def svals(self) -> np.ndarray:
        """singular_values(A), descending."""
        return _memo(self._facts, "svals", lambda: _read_only(singular_values(self)))

    @property
    def norm(self) -> float:
        """||A||, the largest singular value."""
        return float(self.svals[0])

    @property
    def eigvals(self) -> np.ndarray:
        """eigenvalues(A)."""
        return _memo(self._facts, "eigvals", lambda: _read_only(eigenvalues(self)))

    @property
    def eigen(self) -> EigenDecomposition:
        """eigen_decomposition(A); its eigenvalues may differ from eigvals'
        in the last bits (another LAPACK path)."""
        def make():
            dec = eigen_decomposition(self)
            for a in (dec.eigenvalues, dec.right_vectors):
                _read_only(a)
            return dec
        return _memo(self._facts, "eigen", make)

    def power_norms_to(self, k_max: int) -> np.ndarray:
        """power_norms(A, k_max).  Powers are built one after another, so a
        shorter list is a prefix of a longer one, bit for bit: the longest
        computed so far is kept and sliced."""
        known = self._facts.get("power_norms")
        if known is None or not 0 <= k_max < len(known):  # k_max < 0 raises there
            known = self._facts["power_norms"] = _read_only(power_norms(self, k_max))
        return known[:k_max + 1]

    def shifted(self, z: complex) -> np.ndarray:
        """Return z*I - A as a plain array."""
        return z * np.eye(self.n, dtype=np.complex128) - self.entries


def as_matrix(m) -> ComplexMatrix:
    """Coerce an array-like (or pass through a ComplexMatrix)."""
    return m if isinstance(m, ComplexMatrix) else ComplexMatrix(np.asarray(m))


@dataclass(frozen=True, eq=False)
class SVDResult:
    """Singular values (descending) and optional unitary factors.

    Columns of ``left_vectors``/``right_vectors`` are u_i/v_i with
    M v_i = sigma_i u_i.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray | None = None
    right_vectors: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues, right eigenvectors (unit columns), and the numerical
    rank of the eigenvector matrix.  For defective matrices the columns may
    be linearly dependent; ``vector_matrix_rank`` records how many survive
    the standard numerical rank threshold."""

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    vector_matrix_rank: int


def _thread_count() -> int:
    raw = os.environ.get("CONDSPEC_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValueError(f"CONDSPEC_THREADS must be an integer >= 1, got {raw!r}") from exc
        if cap < 1:
            raise ValueError(f"CONDSPEC_THREADS must be >= 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return min(cap, 32)


# C entry points of OpenBLAS's thread count: plain OpenBLAS, then the
# scipy-openblas builds of scipy (32-bit ints) and numpy (64-bit ints).
_OPENBLAS_NAMES = (("openblas_get_num_threads", "openblas_set_num_threads"),
                   ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
                   ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"))

# Held from saving the BLAS thread counts to restoring them, so concurrent
# calls cannot restore each other's pin; they run one after another, and
# each batched call already fills every core.  Reentrant, so a pin
# nested on the owning thread saves and restores the count 1.
_BLAS_PIN_LOCK = threading.RLock()


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into this
    process: numpy and scipy may each bring their own copy.  Empty without
    /proc or without OpenBLAS."""
    try:
        with open("/proc/self/maps") as fp:
            fields = [line.split(maxsplit=5) for line in fp]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in f[5].lower()})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_NAMES:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return tuple(controls)


@contextlib.contextmanager
def _lapack(what: str):
    """Pin every loaded OpenBLAS to one thread, restoring its count on exit,
    and raise a LinAlgError inside as ConvergenceError("<what>: ...").
    Usable as a decorator; reentrant on the owning thread.  Pool workers
    never enter it: their errors reach it through pool.map."""
    with _BLAS_PIN_LOCK:
        controls = _openblas_thread_controls()
        saved = [get() for get, _ in controls]
        try:
            for _, set_ in controls:
                set_(1)
            yield
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"{what}: {exc}") from exc
        finally:
            for (_, set_), count in zip(controls, saved):
                set_(count)


def _entries(m) -> np.ndarray:
    return as_matrix(m).entries


@_lapack("SVD did not converge")
def singular_values(M) -> np.ndarray:
    """All singular values of M, descending."""
    return np.linalg.svd(_entries(M), compute_uv=False)


@_lapack("SVD did not converge")
def svd(M) -> SVDResult:
    u, s, vh = np.linalg.svd(_entries(M))
    return SVDResult(s, left_vectors=u, right_vectors=vh.conj().T)


def spectral_norm(M) -> float:
    """Largest singular value; zero exactly when M = 0."""
    return as_matrix(M).norm


def singularity_threshold(n: int, sigma_max: float) -> float:
    """Numerical-rank cutoff: sigma_min at or below this counts as zero."""
    return n * U_MACH * sigma_max


def condition_ratio(smin, smax, n: int, out=None) -> np.ndarray:
    """sigma_max / sigma_min elementwise; +inf where sigma_min is at or
    below the singularity threshold.  A finite result is always below
    1/(n*U_MACH), so +inf marks exactly the numerically singular entries.
    This is the one place the singularity rule is applied.

    out, if given, is a float64 array of the broadcast shape that receives
    the result; it may be smax itself, as the threshold is taken before
    the divide overwrites it."""
    smin, smax = np.asarray(smin), np.asarray(smax)
    singular = smin <= singularity_threshold(n, smax)
    if out is None:
        out = np.empty(singular.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(smax, smin, out=out)
    out[singular] = np.inf
    return out


def _parts(count: int, n: int, workers: int) -> list[slice]:
    """The slices a batched call of count points at dimension n is cut
    into, with np.array_split's boundaries: the fewest parts of at most
    cap = min(512, 2**15 // n**2) points (at least 1), raised to a multiple
    of workers, but never so many that a part has k*n <= 500.  numpy's
    gufunc loop releases the GIL only past that size
    (NPY_BEGIN_THREADS_THRESHOLDED), so a smaller part would hold the GIL
    and the pool's workers would take turns.  Where the two conflict the
    floor wins: a part holds at most max(cap, 2*floor - 1) points."""
    cap, floor = max(1, min(512, 2**15 // n**2)), 500 // n + 1
    fewest = -(-count // cap)
    parts = min(max(1, count // floor), -(-fewest // workers) * workers)  # 0 when count is 0
    size, extra = divmod(count, max(parts, 1))
    bounds = [i * size + min(i, extra) for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# (pid, workers, executor) of the process's pool, built by the first call
# with more than one part and replaced when CONDSPEC_THREADS changes.  A
# forked child inherits the object but not its threads, so the pid keys
# it too.  Read and replaced only under _BLAS_PIN_LOCK.
_pool = None


def _executor(workers: int):
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        if _pool is not None and _pool[0] == os.getpid():
            _pool[2].shutdown()
        from concurrent.futures import ThreadPoolExecutor  # loaded by the first pool only
        _pool = (os.getpid(), workers, ThreadPoolExecutor(max_workers=workers))
    return _pool[2]


def _run_chunks(count: int, n: int, fill) -> None:
    """fill(part) for each slice of _parts(count, n, CONDSPEC_THREADS), on
    the process's pool when there are several workers and parts, inline
    otherwise.  The caller holds _BLAS_PIN_LOCK."""
    workers = _thread_count()  # read on every call, so a bad value always raises
    parts = _parts(count, n, workers)
    if workers > 1 and len(parts) > 1:
        pool = _executor(workers)
        futures = [pool.submit(fill, part) for part in parts]
        for f in futures:  # every part ends before the call returns or raises
            f.exception()
        for f in futures:
            f.result()
    else:
        list(map(fill, parts))


@_lapack("SVD did not converge")
def shifted_extremes(A, zs) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_min, sigma_max) of z*I - A for every z in zs; each z*I - A
    must be finite.  Each part builds its own stack of z*I - A, in one
    array, and fills its slices of the outputs from one batched SVD."""
    a = _entries(A)
    n = a.shape[0]
    z = np.asarray(zs, dtype=np.complex128).reshape(-1)
    smin, smax = np.empty(z.size), np.empty(z.size)
    eye = np.eye(n, dtype=np.complex128)

    def fill(part: slice):
        with np.errstate(invalid="ignore", over="ignore"):
            stack = np.multiply(z[part, None, None], eye)
            np.subtract(stack, a, out=stack)
        if not np.isfinite(stack).all():
            raise ValueError("shifted matrix entries must be finite (no NaN/Inf)")
        s = np.linalg.svd(stack, compute_uv=False)
        smin[part], smax[part] = s[:, -1], s[:, 0]

    _run_chunks(z.size, n, fill)
    return smin, smax


@_lapack("Hermitian eigensolve failed")
def numerical_range_points(A, thetas) -> np.ndarray:
    """For each theta, the Rayleigh point v* A v of the top eigenvector v of
    the Hermitian part of e^{i theta} A: a boundary point of W(A).  Split
    and pooled as in shifted_extremes."""
    a = _entries(A)
    phases = np.exp(1j * np.asarray(thetas, dtype=np.float64))
    points = np.empty(phases.size, dtype=np.complex128)

    def fill(part: slice):
        rotated = phases[part, None, None] * a
        _, vecs = np.linalg.eigh(0.5 * (rotated + rotated.conj().transpose(0, 2, 1)))
        # v stays a strided column view, as in a per-angle solve: a
        # contiguous copy takes another matmul kernel and other last bits.
        points[part] = [v.conj() @ a @ v for v in vecs[:, :, -1]]

    _run_chunks(phases.size, a.shape[0], fill)
    return points


@_lapack("similarity solve failed")
def similarity_transform(S, A) -> ComplexMatrix:
    """S^{-1} A S: entry (i, j) of A times s_j / s_i for a diagonal S, which
    scales by powers of 2 exactly, else one solve and one product."""
    s, a = _entries(S), _entries(A)
    if s.shape != a.shape:
        raise ValueError("S is %d x %d, A is %d x %d" % (*s.shape, *a.shape))
    d = np.diagonal(s)
    if d.all() and np.count_nonzero(s) == len(d):
        return as_matrix(a * (d / d[:, None]))
    return as_matrix(np.linalg.solve(s, a) @ s)


def condition_number(S) -> float:
    """sigma_max / sigma_min; +inf when S is numerically singular."""
    m = as_matrix(S)
    return float(condition_ratio(m.svals[-1], m.svals[0], m.n))


@_lapack("eigenvalue iteration did not converge")
def eigenvalues(A) -> np.ndarray:
    """All N eigenvalues with multiplicity (unordered multiset)."""
    return np.linalg.eigvals(_entries(A))


@_lapack("eigenvalue iteration did not converge")
def eigen_decomposition(A) -> EigenDecomposition:
    m = as_matrix(A)
    w, v = np.linalg.eig(m.entries)
    with _lapack("SVD did not converge"):
        sv = np.linalg.svd(v, compute_uv=False)
    rank = int(np.count_nonzero(sv > singularity_threshold(m.n, float(sv[0]))))
    return EigenDecomposition(w, v, max(rank, 1))


@_lapack("SVD did not converge")
def power_norms(A, k_max: int) -> np.ndarray:
    """Spectral norms of A^0 .. A^k_max, powers built by repeated
    multiplication (no eigendecomposition, honest for defective A).

    Overflow is per-entry: once a power stops being finite, that entry and
    all later ones are reported as +inf.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    m = as_matrix(A)
    out = np.empty(k_max + 1, dtype=np.float64)
    out[0] = 1.0
    p = np.eye(m.n, dtype=np.complex128)
    for k in range(1, k_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            p = p @ m.entries
        if not np.isfinite(p).all():
            out[k:] = np.inf
            break
        out[k] = np.linalg.svd(p, compute_uv=False)[0]
    return out
