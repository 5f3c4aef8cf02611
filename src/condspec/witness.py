"""Constructive membership certificates for the condition spectrum.

Membership of z can be stated three equivalent ways: the condition number
of z*I - A reaches 1/eps; a unit vector u exists with
||(z - A)u|| <= eps*||z - A||; or z is an eigenvalue of A + E for some
perturbation with ||E|| <= eps*||z - A||.  This module builds the vector
and the rank-one perturbation explicitly, validates third-party
certificates, and cross-checks all three routes.

In the spectral norm the dual vector w with w* u = 1 and ||w|| = 1 is
simply u itself, so the perturbation is E = -eps_hat * v u* where
eps_hat * v is the residual (A - z)u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAMemberError, ParseError
from .numkernel import (
    ComplexMatrix,
    as_matrix,
    condition_ratio,
    shifted_extremes,
    singularity_threshold,
    spectral_norm,
    svd,
)
from .report import TheoremReport
from .spectra import BOUNDARY_BAND, CONDITION, FLOAT_SLACK, in_spectrum

# Eigen-membership tolerance used by certificates: sigma_min((A+E) - z).
_CERT_EIG_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Witness:
    """Certificate quadruple: near-null u, residual direction v, dual w,
    residual norm eps_hat, and the rank-one perturbation making z an
    eigenvalue of A + E."""

    z: complex
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    eps_hat: float
    E: ComplexMatrix

    def to_json_obj(self) -> dict:
        return {
            "z": complex(self.z),
            "eps_hat": float(self.eps_hat),
            "u": self.u.astype(np.complex128),
            "v": self.v.astype(np.complex128),
            "w": self.w.astype(np.complex128),
            "E": self.E.entries,
        }


def witness_from_json_obj(obj) -> Witness:
    """Inverse of Witness.to_json_obj.  Complex values are [re, im] pairs;
    anything else raises ParseError naming the bad key or shape."""
    if not isinstance(obj, dict):
        raise ParseError(f"certificate must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in ("z", "eps_hat", "u", "v", "w", "E") if k not in obj]
    if missing:
        raise ParseError("certificate is missing " + ", ".join(map(repr, missing)))

    def pairs(key, shape, what):
        try:
            a = np.asarray(obj[key], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            a = None
        if a is None or a.shape != (*shape, 2) or not np.isfinite(a).all():
            raise ParseError(f"certificate {key!r} must be {what}")
        return a[..., 0] + 1j * a[..., 1]

    try:
        eps_hat = float(obj["eps_hat"])
    except (TypeError, ValueError, OverflowError):
        raise ParseError("certificate 'eps_hat' must be a number") from None
    n = len(obj["E"]) if isinstance(obj["E"], list) else 0  # [] fails the (0, 0, 2) shape
    E = ComplexMatrix(pairs("E", (n, n), "a square matrix of finite [re, im] pairs"))
    u, v, w = (pairs(key, (n,), f"a list of {n} finite [re, im] pairs") for key in "uvw")
    return Witness(complex(pairs("z", (), "a finite [re, im] pair")), u, v, w, eps_hat, E)


def _fix_phase(u: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real
    positive (first maximum wins; deterministic output)."""
    k = int(np.argmax(np.abs(u)))
    pivot = u[k]  # nonzero: u has norm 1
    return u * (pivot.conjugate() / abs(pivot))


def _smallest_right_singular_vector(shifted: np.ndarray) -> tuple[np.ndarray, float, float]:
    r = svd(shifted)
    vec = _fix_phase(r.right_vectors[:, -1])
    return vec, float(r.singular_values[-1]), float(r.singular_values[0])


def witness_perturbation(A, z: complex, eps) -> Witness:
    """Rank-one E with ||E|| <= eps*||z - A|| and z an eigenvalue of A + E.

    Its u, with ||(z - A)u|| <= eps*||z - A||, is the right singular vector
    of sigma_min(z*I - A): at an eigenvalue, an eigenvector.  The residual
    (A - z)u = eps_hat * v fixes v and eps_hat; w = u in the spectral norm,
    giving E = -eps_hat * v u*.  When z is (numerically) an exact eigenvalue
    the residual is below the rank threshold and E = 0.
    """
    e = CONDITION.eps(eps)
    m = as_matrix(A)
    if not in_spectrum(m, z, e):
        raise NotAMemberError(f"z = {z} is not in the {e}-condition spectrum")
    u, _, smax = _smallest_right_singular_vector(m.shifted(z))
    return _build_witness(m, z, u, smax)


def _build_witness(m: ComplexMatrix, z: complex, u: np.ndarray, smax: float) -> Witness:
    """The witness of z from u and smax as _smallest_right_singular_vector gives them."""
    residual = m.entries @ u - z * u
    eps_hat = float(np.linalg.norm(residual))
    if eps_hat <= singularity_threshold(m.n, smax):
        v = np.zeros(m.n, dtype=np.complex128)
        v[0] = 1.0
        return Witness(z, u, v, u, 0.0, ComplexMatrix(np.zeros((m.n, m.n))))
    v = residual / eps_hat
    E = ComplexMatrix(-eps_hat * np.outer(v, u.conj()))
    return Witness(z, u, v, u, eps_hat, E)


def membership_from_perturbation(A, z: complex, E, eps) -> bool:
    """Validate a third-party certificate: accept iff ||E|| <= eps*||z - A||
    (FLOAT_SLACK relative slack) and z is an eigenvalue of A + E.  Acceptance
    guarantees condition-spectrum membership of z."""
    e = CONDITION.eps(eps)
    m = as_matrix(A)
    pert = as_matrix(E)
    if pert.n != m.n:  # else numpy would broadcast a 1 x 1 E over all of A
        raise ValueError("E is %d x %d, A is %d x %d" % (pert.n, pert.n, m.n, m.n))
    perturbed = m.entries + pert.entries
    try:
        smax = float(shifted_extremes(m, z)[1][0])
        smin = float(shifted_extremes(perturbed, z)[0][0])
    except ValueError:
        return False  # z*I - A, A + E or z*I - (A + E) overflows float64: not checkable
    return (spectral_norm(pert) <= e * smax * (1.0 + FLOAT_SLACK)
            and smin <= _CERT_EIG_TOL * (1.0 + spectral_norm(m)))


def check_equivalence(A, z: complex, eps) -> TheoremReport:
    """Evaluate membership by all three routes and report agreement.

    Points whose ratio lies within 1e-9 (relative) of the level 1/eps are
    flagged boundary-indeterminate: the routes differ there only by
    rounding, so they are excluded from hard agreement.
    """
    e = CONDITION.eps(eps)
    m = as_matrix(A)
    u, smin, smax = _smallest_right_singular_vector(m.shifted(z))

    ratio = float(condition_ratio(smin, smax, m.n))
    route_ratio = ratio >= 1.0 / e

    residual = float(np.linalg.norm(m.entries @ u - z * u))
    route_vector = residual <= e * smax

    w = _build_witness(m, z, u, smax)
    route_certificate = membership_from_perturbation(m, z, w.E, e)

    boundary = np.isfinite(ratio) and CONDITION.off_level(ratio, e) <= BOUNDARY_BAND
    agree = route_ratio == route_vector == route_certificate
    return TheoremReport(
        theorem_id="EQ",
        passed=bool(agree or boundary),
        lhs=ratio if np.isfinite(ratio) else float("inf"),
        rhs=1.0 / e,
        slack_used=BOUNDARY_BAND,
        details={
            "z": [float(np.real(z)), float(np.imag(z))],
            "ratio_route": bool(route_ratio),
            "vector_route": bool(route_vector),
            "certificate_route": bool(route_certificate),
            "boundary_indeterminate": bool(boundary),
            "eps_hat": w.eps_hat,
        },
    )
