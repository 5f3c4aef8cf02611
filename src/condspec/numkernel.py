"""Dense complex linear-algebra primitives in the spectral (2-)norm.

The whole package measures matrices in the operator 2-norm: the norm of a
matrix is its largest singular value, the norm of its inverse is the
reciprocal of the smallest one, and condition numbers are ratios of extreme
singular values.  This norm choice is fixed for the library and is what
makes condition numbers and near-null witness vectors directly computable
from an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

# Unit roundoff of IEEE double precision (half the machine epsilon).
U_MACH = float(np.finfo(np.float64).eps) / 2.0


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Immutable square matrix of finite complex numbers."""

    entries: np.ndarray

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


def _entries(m) -> np.ndarray:
    return as_matrix(m).entries


def singular_values(M) -> np.ndarray:
    """All singular values of M, descending."""
    try:
        return np.linalg.svd(_entries(M), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc


def svd(M, vectors: bool = True) -> SVDResult:
    a = _entries(M)
    try:
        if not vectors:
            return SVDResult(np.linalg.svd(a, compute_uv=False))
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return SVDResult(s, left_vectors=u, right_vectors=vh.conj().T)


def spectral_norm(M) -> float:
    """Largest singular value; zero exactly when M = 0."""
    return float(singular_values(M)[0])


def smallest_singular_value(M) -> float:
    return float(singular_values(M)[-1])


def singularity_threshold(n: int, sigma_max: float) -> float:
    """Numerical-rank cutoff: sigma_min at or below this counts as zero."""
    return n * U_MACH * sigma_max


def condition_ratio(smin, smax, n: int) -> np.ndarray:
    """sigma_max / sigma_min elementwise; +inf where sigma_min is at or
    below the singularity threshold.  A finite result is always below
    1/(n*U_MACH), so +inf marks exactly the numerically singular entries."""
    smin, smax = np.asarray(smin), np.asarray(smax)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = smax / smin
    return np.where(smin <= singularity_threshold(n, smax), np.inf, ratio)


def shifted_extremes(A, zs) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_min, sigma_max) of z*I - A for every z in zs, from one
    batched SVD.  Each z*I - A must be finite, as for a ComplexMatrix."""
    a = _entries(A)
    z = np.asarray(zs, dtype=np.complex128).reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):
        stack = z[:, None, None] * np.eye(a.shape[0], dtype=np.complex128) - a
    if not np.isfinite(stack).all():
        raise ValueError("shifted matrix entries must be finite (no NaN/Inf)")
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return s[:, -1], s[:, 0]


def condition_number(S) -> float:
    """sigma_max / sigma_min; +inf when S is numerically singular."""
    m = as_matrix(S)
    s = singular_values(m)
    return float(condition_ratio(s[-1], s[0], m.n))


def eigenvalues(A) -> np.ndarray:
    """All N eigenvalues with multiplicity (unordered multiset)."""
    try:
        return np.linalg.eigvals(_entries(A))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc


def eigen_decomposition(A) -> EigenDecomposition:
    m = as_matrix(A)
    try:
        w, v = np.linalg.eig(m.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    sv = np.linalg.svd(v, compute_uv=False)
    rank = int(np.count_nonzero(sv > singularity_threshold(m.n, float(sv[0]))))
    return EigenDecomposition(w, v, max(rank, 1))


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
