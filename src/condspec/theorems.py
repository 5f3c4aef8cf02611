"""Executable theorem checks for condition spectra, with pseudospectrum
companions.

Each check evaluates one inequality/implication numerically over grid
classifications and sampled points, records the two compared quantities
plus every tolerance it granted, and returns a reproducible
TheoremReport.  Checks whose hypotheses cannot be certified at grid
resolution pass vacuously and say so in the report details.

Identifiers use the sigma suffix for condition-spectrum statements and
the epsilon suffix for the pseudospectrum companions run under the
resolvent-norm >= 1/eps convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridResolutionError, PreconditionError
from .geometry import (
    convex_hull,
    dedupe_ring,
    distance_to_polygon,
    hull_depths,
)
from .numkernel import (
    as_matrix,
    condition_number,
    condition_ratio,
    eigen_decomposition,
    eigenvalues,
    is_singular,
    power_norms,
    shifted_extremes,
    singular_values,
    spectral_norm,
)
from .report import TheoremReport
from .spectra import (
    BOUNDARY_BAND,
    GridSpec,
    KIND_CONDITION,
    KIND_PSEUDO,
    SpectralField,
    bounding_region,
    component_count,
    compute_field,
    condition_spectral_radius,
    eps_value,
    in_condition_spectrum,
    in_pseudospectrum,
)

# Relative slack for comparisons that are exact in exact arithmetic.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class Disk:
    """Closed disk in the complex plane."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("disk radius must be >= 0")

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return abs(z - self.center) <= self.radius + slack


@dataclass(frozen=True, eq=False)
class NumericalRangeBoundary:
    """Support-angle sweep of the numerical range: for each angle theta the
    Rayleigh point of the top eigenvector of the Hermitian part of
    e^{i theta} A.  The points form a convex polygonal under-approximation
    of the boundary."""

    boundary_points: np.ndarray
    angles: np.ndarray

    def polygon(self) -> np.ndarray:
        pts = np.column_stack([self.boundary_points.real, self.boundary_points.imag])
        scale = 1.0 + float(np.abs(self.boundary_points).max(initial=0.0))
        return dedupe_ring(pts, 1e-12 * scale)


@dataclass(frozen=True)
class TransientConfig:
    """Power-norm threshold M and the horizon k_max to search."""

    M: float
    k_max: int

    def __post_init__(self):
        if not (self.M > 0):
            raise ValueError("M must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


def _field_for(A, grid, eps) -> SpectralField:
    if isinstance(grid, SpectralField):
        return grid
    sizing_eps = min(float(eps), 0.9)  # auto-grids are sized by the condition bound
    if grid is None:
        grid = GridSpec.auto(A, sizing_eps)
    elif isinstance(grid, int):
        grid = GridSpec.auto(A, sizing_eps, n=grid)
    return compute_field(A, grid)


def sample_points(field: SpectralField, eps, count: int, seed: int,
                  kind: str = KIND_CONDITION) -> np.ndarray:
    """Boundary-biased z samples: grid nodes whose field value lies within
    a factor 2 of the membership level, topped up with 25% uniform draws
    over the bounding disk.  Deterministic for a fixed seed."""
    e = eps_value(eps, kind)
    nodes = field.grid.nodes()
    if kind == KIND_CONDITION:
        vals = field.ratio
        band = (vals >= 0.5 / e) & (vals <= 2.0 / e)
    else:
        vals = field.sigma_min
        band = (vals >= 0.5 * e) & (vals <= 2.0 * e)
    band_nodes = nodes[band]

    n_uniform = max(1, count // 4)
    n_band = max(0, count - n_uniform)
    rng = np.random.default_rng(seed)
    parts = []
    if band_nodes.size and n_band:
        take = min(n_band, band_nodes.size)
        idx = np.sort(rng.choice(band_nodes.size, size=take, replace=False))
        parts.append(band_nodes[idx])
    if field.matrix is not None:
        radius = bounding_region(field.matrix, e, kind)
    else:
        radius = max(abs(field.grid.re_max), abs(field.grid.im_max))
    radius = max(radius, 1e-3)
    n_fill = count - sum(p.size for p in parts)
    r = radius * np.sqrt(rng.uniform(size=n_fill))
    th = rng.uniform(0.0, 2.0 * np.pi, size=n_fill)
    parts.append(r * np.exp(1j * th))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# T1: membership of 0 vs condition number of A

def check_t1(A, eps) -> TheoremReport:
    """kappa(A) >= 1/eps iff 0 is in the condition spectrum (nonsingular
    A); singular A short-circuits to membership."""
    e = eps_value(eps)
    m = as_matrix(A)
    if is_singular(m):
        member = in_condition_spectrum(m, 0.0, e)
        return TheoremReport("T1σ", member, float("inf"), 1.0 / e, 0.0,
                             {"status": "singular short-circuit"})
    kappa = condition_number(m)
    member = in_condition_spectrum(m, 0.0, e)
    boundary = abs(kappa * e - 1.0) <= FLOAT_SLACK
    passed = (kappa >= 1.0 / e) == member or boundary
    return TheoremReport("T1σ", bool(passed), kappa, 1.0 / e, FLOAT_SLACK,
                         {"member": bool(member), "boundary": bool(boundary)})


def check_t1e(A, eps) -> TheoremReport:
    """Resolvent companion: 1/sigma_min(A) >= 1/eps iff 0 is in the
    pseudospectrum (nonsingular A)."""
    e = eps_value(eps, KIND_PSEUDO)
    m = as_matrix(A)
    if is_singular(m):
        member = in_pseudospectrum(m, 0.0, e)
        return TheoremReport("T1ε", member, float("inf"), 1.0 / e, 0.0,
                             {"status": "singular short-circuit"})
    smin = float(singular_values(m)[-1])
    member = in_pseudospectrum(m, 0.0, e)
    boundary = abs(smin / e - 1.0) <= FLOAT_SLACK
    passed = (1.0 / smin >= 1.0 / e) == member or boundary
    return TheoremReport("T1ε", bool(passed), 1.0 / smin, 1.0 / e, FLOAT_SLACK,
                         {"member": bool(member), "boundary": bool(boundary)})


# ---------------------------------------------------------------------------
# T2: modulus bound on members

def _modulus_bound_report(theorem_id, field, eps, kind, bound) -> TheoremReport:
    members = field.member_nodes(eps, kind)
    slack = field.grid.cell_diagonal()
    if members.size == 0:
        return TheoremReport(theorem_id, True, 0.0, bound + slack, slack,
                             {"status": "vacuous: no classified members", "members": 0})
    worst = float(np.abs(members).max())
    return TheoremReport(theorem_id, worst <= bound + slack, worst, bound + slack,
                         slack, {"members": int(members.size)})


def check_t2(A, eps, grid=None) -> TheoremReport:
    """Every classified member satisfies |z| <= (1+eps)/(1-eps)*||A||,
    up to one grid diagonal."""
    e = eps_value(eps)
    field = _field_for(A, grid, e)
    return _modulus_bound_report("T2σ", field, e, KIND_CONDITION,
                                 bounding_region(A, e, KIND_CONDITION))


def check_t2e(A, eps, grid=None) -> TheoremReport:
    """Companion: pseudospectrum members satisfy |z| <= ||A|| + eps."""
    e = eps_value(eps, KIND_PSEUDO)
    field = _field_for(A, grid, e)
    return _modulus_bound_report("T2ε", field, e, KIND_PSEUDO,
                                 bounding_region(A, e, KIND_PSEUDO))


# ---------------------------------------------------------------------------
# T3: N components imply diagonalizability

def check_t3(A, eps, grid=None) -> TheoremReport:
    """If the classified set splits into N components, the eigenvector
    matrix must have full numerical rank.  Fewer components prove nothing
    and pass vacuously."""
    e = eps_value(eps)
    m = as_matrix(A)
    field = _field_for(m, grid, e)
    count = component_count(field, e)
    if count < m.n:
        return TheoremReport("T3σ", True, float(count), float(m.n), 0.0,
                             {"status": f"vacuous: {count} component(s) < N"})
    dec = eigen_decomposition(m)
    passed = dec.vector_matrix_rank == m.n
    return TheoremReport("T3σ", bool(passed), float(count), float(m.n), 0.0,
                         {"vector_matrix_rank": dec.vector_matrix_rank})


# ---------------------------------------------------------------------------
# T4: resolvent lower bound from the distance to the spectrum

def _resolvent_bound_report(theorem_id, A, eps, kind, field, z_samples,
                            pad_term) -> TheoremReport:
    m = as_matrix(A)
    members = field.member_nodes(eps, kind)
    eig = eigenvalues(m)
    candidates = np.concatenate([members.ravel(), eig])
    diag = field.grid.cell_diagonal()

    zs = np.asarray(z_samples, dtype=np.complex128)
    smins, smaxs = shifted_extremes(m, zs)
    ratios = condition_ratio(smins, smaxs, m.n)
    insides = ratios >= 1.0 / eps if kind == KIND_CONDITION else smins <= eps
    worst = np.inf
    used = 0
    for z, smin, ratio, inside in zip(zs, smins.tolist(), ratios.tolist(), insides.tolist()):
        if ratio == np.inf:
            continue  # z in the spectrum: resolvent undefined
        d_used = 0.0 if inside else float(np.abs(candidates - z).min()) + diag
        rhs = 1.0 / (d_used + pad_term)
        worst = min(worst, (1.0 / smin) / rhs)
        used += 1
    passed = used == 0 or worst >= 1.0 - FLOAT_SLACK
    return TheoremReport(theorem_id, bool(passed),
                         worst if used else None, 1.0, diag + FLOAT_SLACK,
                         {"samples_used": used,
                          "note": "lhs is min over samples of resolvent/(bound)"})


def check_t4(A, eps, grid=None, z_samples=None, count: int = 48, seed: int = 0) -> TheoremReport:
    """||(z-A)^{-1}|| >= 1/(d(z, spectrum) + 2eps/(1-eps)*||A||) at every
    sampled z outside the eigenvalue set; grid slack is added to d."""
    e = eps_value(eps)
    field = _field_for(A, grid, e)
    if z_samples is None:
        z_samples = sample_points(field, e, count, seed)
    pad = 2.0 * e / (1.0 - e) * spectral_norm(A)
    return _resolvent_bound_report("T4σ", A, e, KIND_CONDITION, field, z_samples, pad)


def check_t4e(A, eps, grid=None, z_samples=None, count: int = 48, seed: int = 0) -> TheoremReport:
    """Companion: ||(z-A)^{-1}|| >= 1/(d(z, pseudospectrum) + eps)."""
    e = eps_value(eps, KIND_PSEUDO)
    field = _field_for(A, grid, e)
    if z_samples is None:
        z_samples = sample_points(field, e, count, seed, KIND_PSEUDO)
    return _resolvent_bound_report("T4ε", A, e, KIND_PSEUDO, field, z_samples, e)


# ---------------------------------------------------------------------------
# T5: similarity inclusion

def _similar_matrix(A, S) -> np.ndarray:
    a = as_matrix(A).entries
    s = as_matrix(S).entries
    return np.linalg.solve(s, a) @ s


def check_t5(A, S, eps, z_samples=None, count: int = 64, seed: int = 0) -> TheoremReport:
    """With A = S B S^{-1}: membership of z at level eps for A implies
    membership at level kappa(S)^2*eps for B.  Requires kappa(S)^2*eps < 1."""
    e = eps_value(eps)
    kappa = condition_number(S)
    if not np.isfinite(kappa):
        raise PreconditionError("similarity matrix S is singular")
    e2 = kappa * kappa * e
    if e2 >= 1.0:
        raise PreconditionError(
            f"kappa(S)^2 * eps = {e2:.6g} >= 1: inclusion level is out of range")
    b = _similar_matrix(A, S)
    if z_samples is None:
        field = _field_for(A, 161, e)
        z_samples = sample_points(field, e, count, seed)
    z_samples = np.concatenate([np.asarray(z_samples, dtype=np.complex128),
                                eigenvalues(A)])
    m = as_matrix(A)
    ka = condition_ratio(*shifted_extremes(m, z_samples), m.n)
    keep = (ka >= 1.0 / e) & (np.abs(ka * e - 1.0) > BOUNDARY_BAND)
    kb = condition_ratio(*shifted_extremes(b, z_samples[keep]), m.n)
    checked = int(keep.sum())
    worst = float(np.min(kb * e2, initial=np.inf))
    passed = checked == 0 or worst >= 1.0 - BOUNDARY_BAND
    return TheoremReport("T5σ", bool(passed), worst if checked else None, 1.0,
                         BOUNDARY_BAND,
                         {"kappa_S": kappa, "target_eps": e2, "members_checked": checked})


def check_t5e(A, S, eps, z_samples=None, count: int = 64, seed: int = 0) -> TheoremReport:
    """Companion inclusion into the kappa(S)*eps pseudospectrum of B."""
    e = eps_value(eps, KIND_PSEUDO)
    kappa = condition_number(S)
    if not np.isfinite(kappa):
        raise PreconditionError("similarity matrix S is singular")
    e2 = kappa * e
    b = as_matrix(_similar_matrix(A, S))
    if z_samples is None:
        field = _field_for(A, 161, e)
        z_samples = sample_points(field, e, count, seed, KIND_PSEUDO)
    z_samples = np.concatenate([np.asarray(z_samples, dtype=np.complex128),
                                eigenvalues(A)])
    sa = shifted_extremes(A, z_samples)[0]
    keep = (sa <= e) & (np.abs(sa / e - 1.0) > BOUNDARY_BAND)
    sb = shifted_extremes(b, z_samples[keep])[0]
    checked = int(keep.sum())
    worst = min((e2 / s if s > 0 else np.inf for s in sb.tolist()), default=np.inf)
    passed = checked == 0 or worst >= 1.0 - BOUNDARY_BAND
    return TheoremReport("T5ε", bool(passed), worst if checked else None, 1.0,
                         BOUNDARY_BAND,
                         {"kappa_S": kappa, "target_eps": e2, "members_checked": checked})


# ---------------------------------------------------------------------------
# T6: spectral radius of the spectrum forces transient power growth

def _transient_verdict(theorem_id, norms, M, start_k, antecedent_lhs, antecedent_rhs,
                       extra) -> TheoremReport:
    observed = float(np.max(norms[start_k:]))
    details = dict(extra)
    details["observed_sup"] = observed
    if observed > M:
        details["status"] = "growth observed"
        return TheoremReport(theorem_id, True, antecedent_lhs, antecedent_rhs,
                             extra.get("slack", 0.0), details)
    decayed = bool(np.any(norms[1:] < 1.0))
    if decayed:
        # Submultiplicativity caps every later power below the observed
        # maximum, so the supremum really is <= M: genuine failure.
        details["status"] = "decay observed with sup <= M"
        return TheoremReport(theorem_id, False, antecedent_lhs, antecedent_rhs,
                             extra.get("slack", 0.0), details)
    details["status"] = "horizon-insufficient"
    return TheoremReport(theorem_id, True, antecedent_lhs, antecedent_rhs,
                         extra.get("slack", 0.0), details)


def check_t6(A, eps, config: TransientConfig, grid=None) -> TheoremReport:
    """Condition-spectral radius above (1+M^2 eps)/(1-M eps) forces
    sup_k ||A^k|| > M.  Needs M < 1/eps strictly; the antecedent is
    certified from below (radius minus one grid diagonal)."""
    e = eps_value(eps)
    if not config.M < 1.0 / e:
        raise PreconditionError(f"M = {config.M} must be < 1/eps = {1.0 / e:.6g}")
    if config.M < 1.0:
        return TheoremReport("T6σ", True, 1.0, config.M, 0.0,
                             {"status": "immediate: ||A^0|| = 1 > M"})
    field = _field_for(A, grid, e)
    diag = field.grid.cell_diagonal()
    radius = condition_spectral_radius(A, e, field) - diag
    threshold = (1.0 + config.M ** 2 * e) / (1.0 - config.M * e)
    if radius <= threshold:
        return TheoremReport("T6σ", True, radius, threshold, diag,
                             {"status": "vacuous: antecedent not certified at grid resolution"})
    norms = power_norms(A, config.k_max)
    return _transient_verdict("T6σ", norms, config.M, 0, radius, threshold,
                              {"slack": diag, "k_max": config.k_max, "M": config.M})


def check_t6e(A, eps, config: TransientConfig, grid=None) -> TheoremReport:
    """Companion: pseudospectral radius above 1 + M*eps forces
    sup_{k>0} ||A^k|| > M."""
    e = eps_value(eps, KIND_PSEUDO)
    field = _field_for(A, grid, e)
    diag = field.grid.cell_diagonal()
    members = field.member_nodes(e, KIND_PSEUDO)
    radius = (float(np.abs(members).max()) if members.size else 0.0) - diag
    threshold = 1.0 + config.M * e
    if radius <= threshold:
        return TheoremReport("T6ε", True, radius, threshold, diag,
                             {"status": "vacuous: antecedent not certified at grid resolution"})
    norms = power_norms(A, config.k_max)
    return _transient_verdict("T6ε", norms, config.M, 1, radius, threshold,
                              {"slack": diag, "k_max": config.k_max, "M": config.M})


# ---------------------------------------------------------------------------
# T7: power-norm lower bounds from members

def admissible_k(eps, k_cap: int = 12) -> list[int]:
    """All k with (2k+1)*eps < 1, capped for practicality."""
    e = eps_value(eps)
    ks = []
    k = 0
    while (2 * k + 1) * e < 1.0 and k <= k_cap:
        ks.append(k)
        k += 1
    return ks


def _member_samples(A, field, eps, kind, z_samples, count, seed) -> np.ndarray:
    if z_samples is None:
        z_samples = sample_points(field, eps, count, seed, kind)
    z_samples = np.asarray(z_samples, dtype=np.complex128)
    m = as_matrix(A)
    smin, smax = shifted_extremes(m, z_samples)
    if kind == KIND_CONDITION:
        ratio = condition_ratio(smin, smax, m.n)
        keep = (ratio >= 1.0 / eps) & (np.abs(ratio * eps - 1.0) > BOUNDARY_BAND)
    else:
        keep = smin <= eps
    return np.concatenate([z_samples[keep], eigenvalues(A)])


def _power_bound_report(theorem_id, A, members, k_list, s, norm_a) -> TheoremReport:
    norms = power_norms(A, max(k_list))
    worst = np.inf
    pairs = overflowed = 0
    for lam in members:
        mod = abs(lam)
        for k in k_list:
            if k == 0:
                continue  # ||A^0|| = 1 >= 1 exactly
            pairs += 1
            ks_ratio = k * s / norm_a
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    bound = mod ** k - k * s * norm_a ** (k - 1) / (1.0 - ks_ratio)
                    slack = 1e-10 * max(1.0, mod ** k)
                    margin = norms[k] - bound + slack
            except OverflowError:
                margin = np.nan
            if not np.isfinite(margin):
                overflowed += 1
                continue
            worst = min(worst, margin)
    passed = not np.isfinite(worst) or worst >= 0.0
    details = {"members": int(len(members)), "k_list": list(k_list),
               "note": "lhs is min over (member, k) of ||A^k|| - bound + slack"}
    if overflowed == pairs > 0:
        details["status"] = "skipped: every (member, k) bound overflows float64"
    elif overflowed:
        details["status"] = (f"partial: {overflowed} of {pairs} (member, k) bounds "
                             "overflow float64; lhs covers the rest")
    return TheoremReport(theorem_id, bool(passed),
                         float(worst) if np.isfinite(worst) else None, 0.0, 1e-10, details)


def check_t7(A, eps, k_list=None, grid=None, z_samples=None,
             count: int = 48, seed: int = 0) -> TheoremReport:
    """||A^k|| >= |lam|^k - k s ||A||^{k-1} / (1 - k s/||A||) with
    s = 2eps/(1-eps)*||A||, for members lam and every admissible k
    ((2k+1)*eps < 1)."""
    e = eps_value(eps)
    if k_list is None:
        k_list = admissible_k(e)
    for k in k_list:
        if not (2 * k + 1) * e < 1.0:
            raise PreconditionError(f"k = {k} inadmissible: (2k+1)*eps = {(2 * k + 1) * e:.6g} >= 1")
    norm_a = spectral_norm(A)
    if norm_a == 0.0:
        return TheoremReport("T7σ", True, None, 0.0, 0.0,
                             {"status": "vacuous: A = 0, members reduce to {0}"})
    field = _field_for(A, grid, e)
    members = _member_samples(A, field, e, KIND_CONDITION, z_samples, count, seed)
    s = 2.0 * e / (1.0 - e) * norm_a
    return _power_bound_report("T7σ", A, members, k_list, s, norm_a)


def check_t7e(A, eps, k_list=None, grid=None, z_samples=None,
              count: int = 48, seed: int = 0) -> TheoremReport:
    """Companion with s replaced by eps; k admissible while k*eps < ||A||."""
    e = eps_value(eps, KIND_PSEUDO)
    norm_a = spectral_norm(A)
    if k_list is None:
        k_list = [k for k in range(0, 13) if k * e < norm_a]
    if not k_list:
        raise PreconditionError("no admissible k: k*eps < ||A|| fails for every k >= 0")
    for k in k_list:
        if k > 0 and not k * e < norm_a:
            raise PreconditionError(f"k = {k} inadmissible: k*eps = {k * e:.6g} >= ||A||")
    field = _field_for(A, grid, e)
    members = _member_samples(A, field, e, KIND_PSEUDO, z_samples, count, seed)
    return _power_bound_report("T7ε", A, members, k_list, e, norm_a)


# ---------------------------------------------------------------------------
# T8: Gerschgorin-style localization

def _gerschgorin_disks(m, pad: float) -> list[Disk]:
    """Disks D(a_jj, r_j + pad) with row sums r_j = sum_{k != j} |a_jk|."""
    absA = np.abs(m.entries)
    row = absA.sum(axis=1) - np.diag(absA)
    return [Disk(complex(m.entries[j, j]), float(row[j] + pad)) for j in range(m.n)]


def gerschgorin_condition_disks(A, eps) -> list[Disk]:
    """Disks D(a_jj, r_j + sqrt(N)*2eps/(1-eps)*||A||) with row sums
    r_j = sum_{k != j} |a_jk| covering the condition spectrum."""
    e = eps_value(eps)
    m = as_matrix(A)
    return _gerschgorin_disks(m, np.sqrt(m.n) * 2.0 * e / (1.0 - e) * spectral_norm(m))


def _disk_cover_report(theorem_id, field, eps, kind, disks) -> TheoremReport:
    members = field.member_nodes(eps, kind)
    slack = field.grid.cell_diagonal()
    if members.size == 0:
        return TheoremReport(theorem_id, True, 0.0, slack, slack,
                             {"status": "vacuous: no classified members"})
    centers = np.array([d.center for d in disks])
    radii = np.array([d.radius for d in disks])
    excess = np.abs(members[:, None] - centers[None, :]) - radii[None, :]
    worst = float(excess.min(axis=1).max())
    return TheoremReport(theorem_id, worst <= slack, worst, slack, slack,
                         {"members": int(members.size), "disks": len(disks)})


def check_t8(A, eps, grid=None) -> TheoremReport:
    """All classified members lie in the Gerschgorin-style disk union,
    up to one grid diagonal."""
    e = eps_value(eps)
    field = _field_for(A, grid, e)
    return _disk_cover_report("T8σ", field, e, KIND_CONDITION,
                              gerschgorin_condition_disks(A, e))


def check_t8e(A, eps, grid=None) -> TheoremReport:
    """Companion with disk padding sqrt(N)*eps."""
    e = eps_value(eps, KIND_PSEUDO)
    m = as_matrix(A)
    disks = _gerschgorin_disks(m, np.sqrt(m.n) * e)
    field = _field_for(A, grid, e)
    return _disk_cover_report("T8ε", field, e, KIND_PSEUDO, disks)


# ---------------------------------------------------------------------------
# T9: numerical range vs the spectrum

# Matrix entries per batched Hermitian eigensolve in
# numerical_range_boundary: all 256 default angles in one call up to
# n = 64, bounded memory beyond.  Each angle is solved on its own, so the
# batch size changes no value.
_EIGH_STACK_ENTRIES = 2 ** 20


def numerical_range_boundary(A, n_angles: int = 256) -> NumericalRangeBoundary:
    """Boundary of W(A) by support angles: for each theta the top
    eigenvector v of the Hermitian part of e^{i theta} A contributes the
    Rayleigh point v* A v."""
    if n_angles < 8:
        raise ValueError("n_angles must be >= 8")
    m = as_matrix(A)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    phases = np.exp(1j * thetas)
    step = max(1, _EIGH_STACK_ENTRIES // m.n ** 2)
    points = []
    for lo in range(0, n_angles, step):
        rotated = phases[lo:lo + step, None, None] * m.entries
        herm = 0.5 * (rotated + rotated.conj().transpose(0, 2, 1))
        try:
            _, vecs = np.linalg.eigh(herm)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Hermitian eigensolve failed: {exc}") from exc
        # v stays a strided column view, as in a per-angle solve: a
        # contiguous copy takes another matmul kernel and other last bits.
        points += [v.conj() @ m.entries @ v for v in vecs[:, :, -1]]
    return NumericalRangeBoundary(np.array(points), thetas)


def _sagitta(norm_a: float, n_angles: int) -> float:
    # Max gap between the polygon and the true boundary for a convex set
    # inside D(0, ||A||): circular-arc sagitta at the angular step.
    return norm_a * (np.pi / n_angles) ** 2 / 2.0


def _range_cover_report(theorem_id, A, field, eps, kind, pad, n_angles,
                        range_polygon) -> TheoremReport:
    m = as_matrix(A)
    members = field.member_nodes(eps, kind)
    diag = field.grid.cell_diagonal()
    norm_a = spectral_norm(m)
    slack = diag + _sagitta(norm_a, n_angles) + 1e-8 * (1.0 + norm_a)
    if members.size == 0:
        return TheoremReport(theorem_id, True, 0.0, pad + slack, slack,
                             {"status": "vacuous: no classified members"})
    poly = range_polygon()
    pts = np.column_stack([members.real, members.imag])
    # Distance to a convex set is convex, so its maximum over a point set
    # is reached at a vertex of that set's hull.  That is exact in exact
    # arithmetic; in floating point a point between two vertices could read
    # an ulp higher, which the slack covers.  tests/test_geometry.py checks
    # the bits against all members, also where a hull edge runs parallel to
    # an edge of W(A).
    hull = convex_hull(pts)
    worst = float(distance_to_polygon(hull, poly).max())
    claim_ok = worst <= pad + slack

    depths = hull_depths(pts, hull)
    eroded = pts[depths >= pad]
    if eroded.size:
        eroded_worst = float(distance_to_polygon(convex_hull(eroded), poly).max())
        erosion_ok = eroded_worst <= slack
    else:
        eroded_worst = 0.0
        erosion_ok = True
    return TheoremReport(theorem_id, bool(claim_ok and erosion_ok), worst, pad + slack,
                         slack,
                         {"members": int(members.size),
                          "eroded_points": int(len(eroded)),
                          "eroded_worst_distance": eroded_worst})


def _range_polygon_of(A, n_angles: int):
    """Zero-argument callable computing the W(A) polygon on first use only,
    so a suite computes it once per matrix and a vacuous check never."""
    return functools.cache(lambda: numerical_range_boundary(A, n_angles).polygon())


def check_t9(A, eps, grid=None, n_angles: int = 256, range_polygon=None) -> TheoremReport:
    """Members lie within 2eps/(1-eps)*||A|| of the numerical range, and
    the eps1-eroded hull of the members sits inside it (both with grid,
    polygon and floating slack).  `range_polygon`, a zero-argument
    callable returning the W(A) polygon, lets checks share one W(A)."""
    e = eps_value(eps)
    field = _field_for(A, grid, e)
    pad = 2.0 * e / (1.0 - e) * spectral_norm(A)
    return _range_cover_report("T9σ", A, field, e, KIND_CONDITION, pad, n_angles,
                               range_polygon or _range_polygon_of(A, n_angles))


def check_t9e(A, eps, grid=None, n_angles: int = 256, range_polygon=None) -> TheoremReport:
    """Companion: pseudospectrum members within eps of the numerical range."""
    e = eps_value(eps, KIND_PSEUDO)
    field = _field_for(A, grid, e)
    return _range_cover_report("T9ε", A, field, e, KIND_PSEUDO, e, n_angles,
                               range_polygon or _range_polygon_of(A, n_angles))


# ---------------------------------------------------------------------------
# T10: affine equivariance

def check_t10(A, alpha: complex, beta: complex, eps, z_samples=None,
              count: int = 100, seed: int = 0) -> TheoremReport:
    """kappa at z for alpha*I + beta*A equals kappa at (z-alpha)/beta for A
    (relative 1e-10), and membership agrees outside the boundary band.
    beta = 0 degenerates to the singleton spectrum at alpha."""
    e = eps_value(eps)
    m = as_matrix(A)
    if beta == 0:
        scaled = as_matrix(alpha * np.eye(m.n))
        at_alpha = in_condition_spectrum(scaled, alpha, e)
        rng = np.random.default_rng(seed)
        off = alpha + (1.0 + rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
        others = [in_condition_spectrum(scaled, z, e) for z in off]
        passed = at_alpha and not any(others)
        return TheoremReport("T10σ", bool(passed), None, None, 0.0,
                             {"status": "beta = 0: spectrum is the singleton {alpha}",
                              "member_at_alpha": bool(at_alpha)})
    transformed = as_matrix(alpha * np.eye(m.n) + beta * m.entries)
    if z_samples is None:
        rng = np.random.default_rng(seed)
        radius = max(bounding_region(m, e), 1e-3) * 1.2
        r = radius * np.sqrt(rng.uniform(size=count))
        th = rng.uniform(0.0, 2.0 * np.pi, size=count)
        w = r * np.exp(1j * th)
        z_samples = alpha + beta * w
    zs = np.asarray(z_samples, dtype=np.complex128)
    v1s = condition_ratio(*shifted_extremes(transformed, zs), m.n)
    v2s = condition_ratio(*shifted_extremes(m, (zs - alpha) / beta), m.n)
    worst_rel = 0.0
    mismatches = 0
    compared = 0
    for v1, v2 in zip(v1s.tolist(), v2s.tolist()):
        if np.isinf(v1) or np.isinf(v2):
            if np.isinf(v1) != np.isinf(v2):
                mismatches += 1
            continue
        compared += 1
        worst_rel = max(worst_rel, abs(v1 - v2) / max(v1, v2))
        b1 = abs(v1 * e - 1.0) <= BOUNDARY_BAND
        b2 = abs(v2 * e - 1.0) <= BOUNDARY_BAND
        if not (b1 or b2) and (v1 >= 1.0 / e) != (v2 >= 1.0 / e):
            mismatches += 1
    passed = mismatches == 0 and worst_rel <= 1e-10
    return TheoremReport("T10σ", bool(passed), worst_rel, 1e-10, BOUNDARY_BAND,
                         {"compared": compared, "membership_mismatches": mismatches})


def check_t10e(A, alpha: complex, beta: complex, eps, z_samples=None,
               count: int = 100, seed: int = 0) -> TheoremReport:
    """Companion: sigma_min(z - (alpha+beta*A)) = |beta| * sigma_min of the
    pulled-back point, so the |beta|*eps pseudospectrum maps exactly."""
    e = eps_value(eps, KIND_PSEUDO)
    m = as_matrix(A)
    if beta == 0:
        return TheoremReport("T10ε", True, None, None, 0.0,
                             {"status": "vacuous: beta = 0 collapses the scaled level to 0"})
    transformed = as_matrix(alpha * np.eye(m.n) + beta * m.entries)
    e_scaled = e * abs(beta)
    if z_samples is None:
        rng = np.random.default_rng(seed)
        radius = max(bounding_region(m, e, KIND_PSEUDO), 1e-3) * 1.2
        r = radius * np.sqrt(rng.uniform(size=count))
        th = rng.uniform(0.0, 2.0 * np.pi, size=count)
        z_samples = alpha + beta * (r * np.exp(1j * th))
    zs = np.asarray(z_samples, dtype=np.complex128)
    s1s = shifted_extremes(transformed, zs)[0]
    s2s = abs(beta) * shifted_extremes(m, (zs - alpha) / beta)[0]
    worst_rel = 0.0
    mismatches = 0
    for s1, s2 in zip(s1s.tolist(), s2s.tolist()):
        scale = max(s1, s2, 1e-300)
        worst_rel = max(worst_rel, abs(s1 - s2) / scale)
        b1 = abs(s1 / e_scaled - 1.0) <= BOUNDARY_BAND
        b2 = abs(s2 / e_scaled - 1.0) <= BOUNDARY_BAND
        if not (b1 or b2) and (s1 <= e_scaled) != (s2 <= e_scaled):
            mismatches += 1
    passed = mismatches == 0 and worst_rel <= 1e-10
    return TheoremReport("T10ε", bool(passed), worst_rel, 1e-10, BOUNDARY_BAND,
                         {"membership_mismatches": mismatches})


# ---------------------------------------------------------------------------
# Suite driver

SIGMA_CHECKS = ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10")
COMPANIONS = {"t1": "t1e", "t2": "t2e", "t4": "t4e", "t5": "t5e", "t6": "t6e",
              "t7": "t7e", "t8": "t8e", "t9": "t9e", "t10": "t10e"}
LABELS = {name: f"T{name[1:]}σ" for name in SIGMA_CHECKS}
LABELS.update({comp: f"T{comp[1:-1]}ε" for comp in COMPANIONS.values()})


def default_similarity(n: int) -> np.ndarray:
    s = np.eye(n, dtype=np.complex128)
    s[0, 0] = 2.0
    return s


def run_suite(A, eps_list, *, theorems=None, grid=None, transient: TransientConfig | None = None,
              n_angles: int = 256, seed: int = 0, S=None, alpha=None, beta=None,
              samples: int = 48, companions: bool = True,
              strict: bool = False) -> list[TheoremReport]:
    """Run the selected checks for each eps over one shared field.

    In non-strict mode a precondition violation (for example
    kappa(S)^2*eps >= 1 for T5) records a skipped report; strict mode
    re-raises it, which the CLI maps to exit code 2.
    """
    m = as_matrix(A)
    names = list(theorems) if theorems else list(SIGMA_CHECKS)
    eps_vals = [eps_value(e) for e in eps_list]
    e_max = max(eps_vals)
    field = _field_for(m, grid, e_max)
    transient = transient or TransientConfig(M=2.0, k_max=50)
    s_mat = default_similarity(m.n) if S is None else as_matrix(S).entries
    rng = np.random.default_rng(seed)
    if alpha is None:
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    if beta is None:
        beta = complex(rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi)))

    unknown = [n for n in names if n not in SIGMA_CHECKS]
    if unknown:
        raise ValueError(f"unknown theorem selector(s): {unknown}")

    shared = dict(m=m, field=field, transient=transient, n_angles=n_angles, s_mat=s_mat,
                  alpha=alpha, beta=beta, samples=samples,
                  range_polygon=_range_polygon_of(m, n_angles))
    reports: list[TheoremReport] = []
    for i_eps, e in enumerate(eps_vals):
        for i_t, name in enumerate(names):
            run_ids = [name] + ([COMPANIONS[name]] if companions and name in COMPANIONS else [])
            for check_name in run_ids:
                sub_seed = seed + 1009 * i_eps + 31 * i_t
                try:
                    reports.append(_CHECKS[check_name](e=e, seed=sub_seed, **shared))
                except (PreconditionError, GridResolutionError) as exc:
                    if strict:
                        raise
                    reports.append(TheoremReport(LABELS[check_name], True, None, None, 0.0,
                                                 {"status": f"skipped: {exc}", "eps": e}))
    return reports


# Each entry names its check at call time, so a check_* patched on this
# module (by a tracer, say) is the one that runs.
_CHECKS = {
    "t1": lambda m, e, **_: check_t1(m, e),
    "t1e": lambda m, e, **_: check_t1e(m, e),
    "t2": lambda m, e, field, **_: check_t2(m, e, field),
    "t2e": lambda m, e, field, **_: check_t2e(m, e, field),
    "t3": lambda m, e, field, **_: check_t3(m, e, field),
    "t4": lambda m, e, field, samples, seed, **_:
        check_t4(m, e, field, count=samples, seed=seed),
    "t4e": lambda m, e, field, samples, seed, **_:
        check_t4e(m, e, field, count=samples, seed=seed),
    "t5": lambda m, e, field, s_mat, samples, seed, **_:
        check_t5(m, s_mat, e, z_samples=sample_points(field, e, samples, seed)),
    "t5e": lambda m, e, field, s_mat, samples, seed, **_:
        check_t5e(m, s_mat, e, z_samples=sample_points(field, e, samples, seed, KIND_PSEUDO)),
    "t6": lambda m, e, field, transient, **_: check_t6(m, e, transient, field),
    "t6e": lambda m, e, field, transient, **_: check_t6e(m, e, transient, field),
    "t7": lambda m, e, field, samples, seed, **_:
        check_t7(m, e, grid=field, count=samples, seed=seed),
    "t7e": lambda m, e, field, samples, seed, **_:
        check_t7e(m, e, grid=field, count=samples, seed=seed),
    "t8": lambda m, e, field, **_: check_t8(m, e, field),
    "t8e": lambda m, e, field, **_: check_t8e(m, e, field),
    "t9": lambda m, e, field, n_angles, range_polygon, **_:
        check_t9(m, e, field, n_angles, range_polygon),
    "t9e": lambda m, e, field, n_angles, range_polygon, **_:
        check_t9e(m, e, field, n_angles, range_polygon),
    "t10": lambda m, e, alpha, beta, seed, **_: check_t10(m, alpha, beta, e, seed=seed),
    "t10e": lambda m, e, alpha, beta, seed, **_: check_t10e(m, alpha, beta, e, seed=seed),
}
