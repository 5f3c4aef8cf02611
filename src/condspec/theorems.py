"""Executable theorem checks for condition spectra, each with its
pseudospectrum companion.

Each check evaluates one inequality/implication numerically over grid
classifications and sampled points, records the two compared quantities
plus every tolerance it granted, and returns a reproducible
TheoremReport.  Checks whose hypotheses cannot be certified at grid
resolution pass vacuously and say so in the report details.

Identifiers use the sigma suffix for condition-spectrum statements and
the epsilon suffix for each pseudospectrum companion, run under the
resolvent-norm >= 1/eps convention.  As in the paper, each companion has
the format of its condition-spectrum statement, so each pair runs one body
that takes a spectra.SpectrumKind (CONDITION or PSEUDO); what belongs to
one theorem alone (T5's level, T6's threshold, T7's k) comes from its check_tN/tNe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridResolutionError, GridTooSmallError, PreconditionError
from .geometry import (
    convex_hull,
    dedupe_ring,
    distance_to_disks,
    distance_to_polygon,
    hull_depths,
)
from .numkernel import (
    _memo,
    _read_only,
    as_matrix,
    condition_number,
    condition_ratio,
    numerical_range_points,
    similarity_transform,
)
from .report import TheoremReport
from .spectra import (
    BOUNDARY_BAND,
    CONDITION,
    FLOAT_SLACK,
    PSEUDO,
    SpectralField,
    SpectrumKind,
    bounding_region,
    component_count,
    compute_field,  # unused here; condbench's tracer test reads theorems.compute_field
    field_for,
    grid_for,
    member_distances,
    member_radius,
)


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


def _disk_draw(rng, radius: float, count: int, scale: float = 1.0) -> np.ndarray:
    """count points uniform over the disk |z| <= max(radius, 1e-3) * scale."""
    radius = max(radius, 1e-3) * scale
    r = radius * np.sqrt(rng.uniform(size=count))
    th = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.exp(1j * th)


def sample_points(A, field: SpectralField, eps: float, count: int, seed: int,
                  kind: SpectrumKind = CONDITION) -> np.ndarray:
    """Boundary-biased z samples: nodes of A's field whose value lies within
    a factor 2 of the membership level, topped up with 25% uniform draws
    over A's bounding disk.  Deterministic for a fixed seed."""
    e = kind.eps(eps)
    band_nodes = field.band_nodes(e, kind)

    n_uniform = max(1, count // 4)
    n_band = max(0, count - n_uniform)
    rng = np.random.default_rng(seed)
    parts = []
    if band_nodes.size and n_band:
        take = min(n_band, band_nodes.size)
        idx = np.sort(rng.choice(band_nodes.size, size=take, replace=False))
        parts.append(band_nodes[idx])
    parts.append(_disk_draw(rng, bounding_region(A, e, kind), count - sum(p.size for p in parts)))
    return np.concatenate(parts)


def _points(m, grid, e, z_samples, count, seed, kind) -> np.ndarray:
    """A sampled check's points: z_samples, else sample_points on m's field."""
    if z_samples is None:
        z_samples = sample_points(m, field_for(m, grid, e), e, count, seed, kind)
    return np.asarray(z_samples, dtype=np.complex128)


def _clear_members(kind, m, zs, e) -> np.ndarray:
    """Which of zs are members of m's eps-spectrum outside the boundary band."""
    q = kind.at(m, zs)[1]
    return kind.inside(q, e) & (kind.off_level(q, e) > BOUNDARY_BAND)


# ---------------------------------------------------------------------------
# T1: membership of 0 vs condition number of A

def _zero_membership_report(kind, A, eps) -> TheoremReport:
    e = kind.eps(eps)
    m = as_matrix(A)
    s = m.svals  # those of 0*I - A
    smin, ratio = float(s[-1]), float(condition_ratio(s[-1], s[0], m.n))
    q = kind.quantity(smin, ratio)
    member = bool(kind.inside(q, e))
    if np.isinf(ratio):
        return TheoremReport(f"T1{kind.suffix}", member, float("inf"), 1.0 / e, 0.0,
                             {"status": "singular short-circuit"})
    lhs = kind.measure(smin, ratio)
    boundary = kind.off_level(q, e) <= FLOAT_SLACK
    passed = (lhs >= 1.0 / e) == member or boundary
    return TheoremReport(f"T1{kind.suffix}", bool(passed), lhs, 1.0 / e, FLOAT_SLACK,
                         {"member": member, "boundary": bool(boundary)})


def check_t1(A, eps) -> TheoremReport:
    """kappa(A) >= 1/eps iff 0 is in the condition spectrum (nonsingular
    A); singular A short-circuits to membership."""
    return _zero_membership_report(CONDITION, A, eps)


def check_t1e(A, eps) -> TheoremReport:
    """Resolvent companion: 1/sigma_min(A) >= 1/eps iff 0 is in the
    pseudospectrum (nonsingular A)."""
    return _zero_membership_report(PSEUDO, A, eps)


# ---------------------------------------------------------------------------
# T2: modulus bound on members

def _modulus_bound_report(kind, A, eps, grid) -> TheoremReport:
    e = kind.eps(eps)
    m = as_matrix(A)
    field = field_for(m, grid, e)
    bound = bounding_region(m, e, kind)
    members = field.member_nodes(e, kind)
    slack = field.grid.cell_diagonal()
    if members.size == 0:
        return TheoremReport(f"T2{kind.suffix}", True, 0.0, bound + slack, slack,
                             {"status": "vacuous: no classified members", "members": 0})
    worst = member_radius(field, e, kind)
    return TheoremReport(f"T2{kind.suffix}", worst <= bound + slack, worst, bound + slack,
                         slack, {"members": int(members.size)})


def check_t2(A, eps, grid=None) -> TheoremReport:
    """Every classified member satisfies |z| <= (1+eps)/(1-eps)*||A||,
    up to one grid diagonal."""
    return _modulus_bound_report(CONDITION, A, eps, grid)


def check_t2e(A, eps, grid=None) -> TheoremReport:
    """Companion: pseudospectrum members satisfy |z| <= ||A|| + eps."""
    return _modulus_bound_report(PSEUDO, A, eps, grid)


# ---------------------------------------------------------------------------
# T3: N components imply diagonalizability

def check_t3(A, eps, grid=None) -> TheoremReport:
    """If the classified set splits into N components, the eigenvector
    matrix must have full numerical rank.  Fewer components prove nothing
    and pass vacuously."""
    e = CONDITION.eps(eps)
    m = as_matrix(A)
    field = field_for(m, grid, e)
    count = component_count(m, field, e)
    if count < m.n:
        return TheoremReport("T3σ", True, float(count), float(m.n), 0.0,
                             {"status": f"vacuous: {count} component(s) < N"})
    dec = m.eigen
    passed = dec.vector_matrix_rank == m.n
    return TheoremReport("T3σ", bool(passed), float(count), float(m.n), 0.0,
                         {"vector_matrix_rank": dec.vector_matrix_rank})


# ---------------------------------------------------------------------------
# T4: resolvent lower bound from the distance to the spectrum

def _resolvent_bound_report(kind, A, eps, grid, z_samples, count, seed) -> TheoremReport:
    e = kind.eps(eps)
    m = as_matrix(A)
    field = field_for(m, grid, e)
    zs = _points(m, grid, e, z_samples, count, seed, kind)
    pad_term = kind.pad(e, m.norm)
    diag = field.grid.cell_diagonal()
    smins, ratios = CONDITION.at(m, zs)
    finite = ratios != np.inf  # else z is in the spectrum: resolvent undefined
    outside = finite & ~kind.inside(kind.quantity(smins, ratios), e)
    d_used = np.zeros(zs.shape)
    d_used[outside] = member_distances(m, field, e, zs[outside], kind) + diag
    rhs = 1.0 / (d_used[finite] + pad_term)
    worst = float(np.min((1.0 / smins[finite]) / rhs, initial=np.inf))
    used = int(finite.sum())
    passed = used == 0 or worst >= 1.0 - FLOAT_SLACK
    return TheoremReport(f"T4{kind.suffix}", bool(passed), worst if used else None, 1.0,
                         diag + FLOAT_SLACK,
                         {"samples_used": used,
                          "note": "lhs is min over samples of resolvent/(bound)"})


def check_t4(A, eps, grid=None, z_samples=None, count: int = 48, seed: int = 0) -> TheoremReport:
    """||(z-A)^{-1}|| >= 1/(d(z, spectrum) + 2eps/(1-eps)*||A||) at every
    sampled z outside the eigenvalue set; grid slack is added to d."""
    return _resolvent_bound_report(CONDITION, A, eps, grid, z_samples, count, seed)


def check_t4e(A, eps, grid=None, z_samples=None, count: int = 48, seed: int = 0) -> TheoremReport:
    """Companion: ||(z-A)^{-1}|| >= 1/(d(z, pseudospectrum) + eps)."""
    return _resolvent_bound_report(PSEUDO, A, eps, grid, z_samples, count, seed)


# ---------------------------------------------------------------------------
# T5: similarity inclusion

def _similarity_report(kind, target, A, S, eps, grid, z_samples, count, seed) -> TheoremReport:
    """Members of A at level eps (outside the boundary band) must be
    members of B = S^{-1} A S at level target(kappa(S), eps)."""
    e = kind.eps(eps)
    kappa = condition_number(S)
    if not np.isfinite(kappa):
        raise PreconditionError("similarity matrix S is singular")
    e2 = target(kappa, e)
    if e2 >= kind.eps_limit:  # only the condition level is bounded
        raise PreconditionError(
            f"kappa(S)^2 * eps = {e2:.6g} >= 1: inclusion level is out of range")
    m = as_matrix(A)
    b = similarity_transform(S, m)
    z_samples = np.concatenate([_points(m, grid, e, z_samples, count, seed, kind), m.eigvals])
    keep = _clear_members(kind, m, z_samples, e)
    qb = kind.at(b, z_samples[keep])[1]
    checked = int(keep.sum())
    worst = float(np.min(kind.depth(qb, e2), initial=np.inf))
    passed = checked == 0 or worst >= 1.0 - BOUNDARY_BAND
    return TheoremReport(f"T5{kind.suffix}", bool(passed), worst if checked else None, 1.0,
                         BOUNDARY_BAND,
                         {"kappa_S": kappa, "target_eps": e2, "members_checked": checked})


def check_t5(A, S, eps, grid=None, z_samples=None, count: int = 64, seed: int = 0) -> TheoremReport:
    """With A = S B S^{-1}: membership of z at level eps for A implies
    membership at level kappa(S)^2*eps for B.  Requires kappa(S)^2*eps < 1."""
    return _similarity_report(CONDITION, lambda kappa, e: kappa * kappa * e,
                              A, S, eps, grid, z_samples, count, seed)


def check_t5e(A, S, eps, grid=None, z_samples=None, count: int = 64, seed: int = 0) -> TheoremReport:
    """Companion inclusion into the kappa(S)*eps pseudospectrum of B."""
    return _similarity_report(PSEUDO, lambda kappa, e: kappa * e,
                              A, S, eps, grid, z_samples, count, seed)


# ---------------------------------------------------------------------------
# T6: spectral radius of the spectrum forces transient power growth

def _growth_report(kind, threshold, start_k, A, eps, config, grid) -> TheoremReport:
    """A spectral radius above threshold(M, eps), certified from below
    (max |z| over the member nodes minus one grid diagonal), forces
    sup_{k >= start_k} ||A^k|| > M.  Member nodes lie in the spectrum, so
    on any grid their max |z| bounds its radius from below."""
    e = kind.eps(eps)
    rhs = threshold(config.M, e)
    label = f"T6{kind.suffix}"
    if start_k == 0 and config.M < 1.0:
        return TheoremReport(label, True, 1.0, config.M, 0.0,
                             {"status": "immediate: ||A^0|| = 1 > M"})
    m = as_matrix(A)
    field = field_for(m, grid, e)
    diag = field.grid.cell_diagonal()
    lhs = member_radius(field, e, kind) - diag
    if lhs <= rhs:
        return TheoremReport(label, True, lhs, rhs, diag,
                             {"status": "vacuous: antecedent not certified at grid resolution"})
    norms = m.power_norms_to(config.k_max)
    observed = float(np.max(norms[start_k:]))
    details = {"slack": diag, "k_max": config.k_max, "M": config.M, "observed_sup": observed}
    if observed > config.M:
        passed, details["status"] = True, "growth observed"
    elif np.any(norms[1:] < 1.0):
        # Submultiplicativity caps every later power below the observed
        # maximum, so the supremum really is <= M: genuine failure.
        passed, details["status"] = False, "decay observed with sup <= M"
    else:
        passed, details["status"] = True, "horizon-insufficient"
    return TheoremReport(label, passed, lhs, rhs, diag, details)


def _condition_growth_threshold(M, e) -> float:
    if not M < 1.0 / e:
        raise PreconditionError(f"M = {M} must be < 1/eps = {1.0 / e:.6g}")
    return (1.0 + M ** 2 * e) / (1.0 - M * e)


def check_t6(A, eps, config: TransientConfig, grid=None) -> TheoremReport:
    """Condition-spectral radius above (1+M^2 eps)/(1-M eps) forces
    sup_k ||A^k|| > M.  Needs M < 1/eps strictly."""
    return _growth_report(CONDITION, _condition_growth_threshold, 0, A, eps, config, grid)


def check_t6e(A, eps, config: TransientConfig, grid=None) -> TheoremReport:
    """Companion: pseudospectral radius above 1 + M*eps forces
    sup_{k>0} ||A^k|| > M."""
    return _growth_report(PSEUDO, lambda M, e: 1.0 + M * e, 1, A, eps, config, grid)


# ---------------------------------------------------------------------------
# T7: power-norm lower bounds from members

def _power_bound_report(kind, rule, A, eps, k_list, grid, z_samples, count,
                        seed) -> TheoremReport:
    """T7 with s the kind's pad, for members lam outside the boundary band.
    rule = (name, value(k, eps, ||A||), limit name, limit(||A||)): k > 0 is
    admissible while value < limit."""
    e = kind.eps(eps)
    m = as_matrix(A)
    norm_a = m.norm
    name, value, limit_name, limit = rule
    if k_list is None:
        k_list = [k for k in range(13) if value(k, e, norm_a) < limit(norm_a)]
        if not k_list:
            raise PreconditionError(f"no admissible k: {name} < {limit_name} fails for every k >= 0")
    elif not k_list:
        raise PreconditionError("k_list is empty: give at least one k")
    for k in k_list:
        if k > 0 and not value(k, e, norm_a) < limit(norm_a):
            raise PreconditionError(
                f"k = {k} inadmissible: {name} = {value(k, e, norm_a):.6g} >= {limit_name}")
    s = kind.pad(e, norm_a)
    if norm_a == 0.0 and s == 0.0:
        return TheoremReport(f"T7{kind.suffix}", True, None, 0.0, 0.0,
                             {"status": "vacuous: A = 0, members reduce to {0}"})
    z_samples = np.concatenate([_points(m, grid, e, z_samples, count, seed, kind), m.eigvals])
    members = z_samples[_clear_members(kind, m, z_samples, e)]

    norms = m.power_norms_to(max(k_list))
    worst = np.inf
    granted = 0.0  # the largest slack a counted (member, k) pair was given
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
            except ArithmeticError:  # overflow, or k*s/||A|| rounding to 1
                margin = np.nan
            if not np.isfinite(margin):
                overflowed += 1
                continue
            worst, granted = min(worst, margin), max(granted, slack)
    passed = not np.isfinite(worst) or worst >= 0.0
    details = {"members": int(len(members)), "k_list": list(k_list),
               "note": "lhs is min over (member, k) of ||A^k|| - bound + slack"}
    if overflowed == pairs > 0:
        details["status"] = "skipped: every (member, k) bound overflows float64"
    elif overflowed:
        details["status"] = (f"partial: {overflowed} of {pairs} (member, k) bounds "
                             "overflow float64; lhs covers the rest")
    return TheoremReport(f"T7{kind.suffix}", bool(passed),
                         float(worst) if np.isfinite(worst) else None, 0.0, granted, details)


def check_t7(A, eps, k_list=None, grid=None, z_samples=None,
             count: int = 48, seed: int = 0) -> TheoremReport:
    """||A^k|| >= |lam|^k - k s ||A||^{k-1} / (1 - k s/||A||) with
    s = 2eps/(1-eps)*||A||, for members lam and every admissible k
    ((2k+1)*eps < 1)."""
    rule = ("(2k+1)*eps", lambda k, e, norm: (2 * k + 1) * e, "1", lambda norm: 1.0)
    return _power_bound_report(CONDITION, rule, A, eps, k_list, grid, z_samples, count, seed)


def check_t7e(A, eps, k_list=None, grid=None, z_samples=None,
              count: int = 48, seed: int = 0) -> TheoremReport:
    """Companion with s replaced by eps; k admissible while k*eps < ||A||."""
    rule = ("k*eps", lambda k, e, norm: k * e, "||A||", lambda norm: norm)
    return _power_bound_report(PSEUDO, rule, A, eps, k_list, grid, z_samples, count, seed)


# ---------------------------------------------------------------------------
# T8: Gerschgorin-style localization

def _gerschgorin_disks(kind, m, e) -> tuple[np.ndarray, np.ndarray]:
    """(centers, radii) of the disks D(a_jj, r_j + sqrt(N)*pad) with row
    sums r_j = sum_{k != j} |a_jk|."""
    pad = kind.pad(e, m.norm, np.sqrt(m.n))
    absA = np.abs(m.entries)
    return np.diag(m.entries), absA.sum(axis=1) - np.diag(absA) + pad


def gerschgorin_condition_disks(A, eps) -> list[Disk]:
    """Disks D(a_jj, r_j + sqrt(N)*2eps/(1-eps)*||A||) with row sums
    r_j = sum_{k != j} |a_jk| covering the condition spectrum."""
    centers, radii = _gerschgorin_disks(CONDITION, as_matrix(A), CONDITION.eps(eps))
    return [Disk(complex(c), float(r)) for c, r in zip(centers, radii)]


def _disk_cover_report(kind, A, eps, grid) -> TheoremReport:
    e = kind.eps(eps)
    m = as_matrix(A)
    field = field_for(m, grid, e)
    centers, radii = _gerschgorin_disks(kind, m, e)
    members = field.member_nodes(e, kind)
    slack = field.grid.cell_diagonal()
    if members.size == 0:
        return TheoremReport(f"T8{kind.suffix}", True, 0.0, slack, slack,
                             {"status": "vacuous: no classified members"})
    worst = float(distance_to_disks(members, centers, radii).max())
    return TheoremReport(f"T8{kind.suffix}", worst <= slack, worst, slack, slack,
                         {"members": int(members.size), "disks": m.n})


def check_t8(A, eps, grid=None) -> TheoremReport:
    """All classified members lie in the Gerschgorin-style disk union,
    up to one grid diagonal."""
    return _disk_cover_report(CONDITION, A, eps, grid)


def check_t8e(A, eps, grid=None) -> TheoremReport:
    """Companion with disk padding sqrt(N)*eps."""
    return _disk_cover_report(PSEUDO, A, eps, grid)


# ---------------------------------------------------------------------------
# T9: numerical range vs the spectrum

def numerical_range_boundary(A, n_angles: int = 256) -> NumericalRangeBoundary:
    """Boundary of W(A) by n_angles equally spaced support angles
    (numkernel.numerical_range_points)."""
    if n_angles < 8:
        raise ValueError("n_angles must be >= 8")
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    return NumericalRangeBoundary(numerical_range_points(A, thetas), thetas)


def _sagitta(norm_a: float, n_angles: int) -> float:
    # Max gap between the polygon and the true boundary for a convex set
    # inside D(0, ||A||): circular-arc sagitta at the angular step.
    return norm_a * (np.pi / n_angles) ** 2 / 2.0


def _range_cover_report(kind, A, eps, grid, n_angles) -> TheoremReport:
    e = kind.eps(eps)
    m = as_matrix(A)
    field = field_for(m, grid, e)
    members = field.member_nodes(e, kind)
    diag = field.grid.cell_diagonal()
    norm_a = m.norm
    pad = kind.pad(e, norm_a)
    slack = diag + _sagitta(norm_a, n_angles) + 1e-8 * (1.0 + norm_a)
    if members.size == 0:
        return TheoremReport(f"T9{kind.suffix}", True, 0.0, pad + slack, slack,
                             {"status": "vacuous: no classified members"})
    poly = _memo(m._facts, ("W", n_angles),  # a fact of m: once per suite, never if vacuous
                 lambda: _read_only(numerical_range_boundary(m, n_angles).polygon()))
    pts = np.column_stack([members.real, members.imag])
    # The kernels square coordinates.  Scaled below 1 by a power of two,
    # which is exact, each distance scaled back keeps its bits, and no
    # square overflows.
    exp = int(np.frexp(max(np.abs(pts).max(), np.abs(poly).max()))[1])
    pts, poly = np.ldexp(pts, -exp), np.ldexp(poly, -exp)
    # Distance to a convex set is convex, so its maximum over a point set
    # is reached at a vertex of that set's hull.  That is exact in exact
    # arithmetic; in floating point a point between two vertices could read
    # an ulp higher, which the slack covers.  tests/test_geometry.py checks
    # the bits against all members, also where a hull edge runs parallel to
    # an edge of W(A).
    hull = convex_hull(pts)
    worst = float(np.ldexp(distance_to_polygon(hull, poly).max(), exp))
    claim_ok = worst <= pad + slack

    depths = np.ldexp(hull_depths(pts, hull), exp)
    eroded = pts[depths >= pad]
    if eroded.size:
        eroded_worst = float(np.ldexp(distance_to_polygon(convex_hull(eroded), poly).max(), exp))
        erosion_ok = eroded_worst <= slack
    else:
        eroded_worst = 0.0
        erosion_ok = True
    return TheoremReport(f"T9{kind.suffix}", bool(claim_ok and erosion_ok), worst,
                         pad + slack, slack, {"members": int(members.size),
                                              "eroded_points": int(len(eroded)),
                                              "eroded_worst_distance": eroded_worst})


def check_t9(A, eps, grid=None, n_angles: int = 256) -> TheoremReport:
    """Members lie within 2eps/(1-eps)*||A|| of the numerical range, and
    the eps1-eroded hull of the members sits inside it (both with grid,
    polygon and floating slack)."""
    return _range_cover_report(CONDITION, A, eps, grid, n_angles)


def check_t9e(A, eps, grid=None, n_angles: int = 256) -> TheoremReport:
    """Companion: pseudospectrum members within eps of the numerical range."""
    return _range_cover_report(PSEUDO, A, eps, grid, n_angles)


# ---------------------------------------------------------------------------
# T10: affine equivariance

def _affine_report(kind, A, alpha, beta, eps, z_samples, count, seed) -> TheoremReport:
    """The quantity at z for alpha*I + beta*A is |beta|**kind.degree times
    the quantity at (z-alpha)/beta for A (relative 1e-10), and membership
    at the level scaled the same way agrees outside the boundary band."""
    e = kind.eps(eps)
    m = as_matrix(A)
    label = f"T10{kind.suffix}"
    scale = abs(beta) ** kind.degree
    if beta == 0 and scale == 0:
        return TheoremReport(label, True, None, None, 0.0,
                             {"status": "vacuous: beta = 0 collapses the scaled level to 0"})
    if beta == 0:
        rng = np.random.default_rng(seed)
        off = alpha + (1.0 + rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
        inside = kind.inside(kind.at(alpha * np.eye(m.n), np.append(alpha, off))[1], e)
        return TheoremReport(label, bool(inside[0] and not inside[1:].any()), None, None, 0.0,
                             {"status": "beta = 0: spectrum is the singleton {alpha}",
                              "member_at_alpha": bool(inside[0])})
    transformed = as_matrix(alpha * np.eye(m.n) + beta * m.entries)
    e_scaled = e * scale
    if z_samples is None:
        disk = _disk_draw(np.random.default_rng(seed), bounding_region(m, e, kind), count, 1.2)
        z_samples = alpha + beta * disk
    zs = np.asarray(z_samples, dtype=np.complex128)
    q1s = kind.at(transformed, zs)[1]
    q2s = scale * kind.at(m, (zs - alpha) / beta)[1]
    pole = np.isinf(q1s) | np.isinf(q2s)
    q1, q2 = q1s[~pole], q2s[~pole]
    worst_rel = float(np.max(np.abs(q1 - q2) / np.maximum(np.maximum(q1, q2), 1e-300),
                             initial=0.0))
    clear = np.minimum(kind.off_level(q1, e_scaled), kind.off_level(q2, e_scaled)) > BOUNDARY_BAND
    mismatches = int(np.sum(q1s[pole] != q2s[pole])  # only one of them in the spectrum
                     + np.sum(clear & (kind.inside(q1, e_scaled) != kind.inside(q2, e_scaled))))
    passed = mismatches == 0 and worst_rel <= 1e-10
    details = {"compared": int(q1.size)} if kind.poles else {}
    details["membership_mismatches"] = mismatches
    return TheoremReport(label, bool(passed), worst_rel, 1e-10, BOUNDARY_BAND, details)


def check_t10(A, alpha: complex, beta: complex, eps, z_samples=None,
              count: int = 100, seed: int = 0) -> TheoremReport:
    """kappa at z for alpha*I + beta*A equals kappa at (z-alpha)/beta for A
    (relative 1e-10), and membership agrees outside the boundary band.
    beta = 0 degenerates to the singleton spectrum at alpha."""
    return _affine_report(CONDITION, A, alpha, beta, eps, z_samples, count, seed)


def check_t10e(A, alpha: complex, beta: complex, eps, z_samples=None,
               count: int = 100, seed: int = 0) -> TheoremReport:
    """Companion: sigma_min(z - (alpha+beta*A)) = |beta| * sigma_min of the
    pulled-back point, so the |beta|*eps pseudospectrum maps exactly."""
    return _affine_report(PSEUDO, A, alpha, beta, eps, z_samples, count, seed)


# ---------------------------------------------------------------------------
# Suite driver

# The parameters run_suite passes to each check and its companion, by name.
_SUITE_ARGS = {
    "t1": ("A", "eps"), "t2": ("A", "eps", "grid"), "t3": ("A", "eps", "grid"),
    "t4": ("A", "eps", "grid", "count", "seed"), "t5": ("A", "S", "eps", "grid", "count", "seed"),
    "t6": ("A", "eps", "config", "grid"), "t7": ("A", "eps", "grid", "count", "seed"),
    "t8": ("A", "eps", "grid"), "t9": ("A", "eps", "grid", "n_angles"),
    "t10": ("A", "alpha", "beta", "eps", "seed"),
}
SIGMA_CHECKS = tuple(_SUITE_ARGS)
COMPANIONS = {name: name + "e" for name in SIGMA_CHECKS if name != "t3"}


def default_similarity(n: int) -> np.ndarray:
    s = np.eye(n, dtype=np.complex128)
    s[0, 0] = 2.0
    return s


def run_suite(A, eps_list, *, theorems=None, grid=None, transient: TransientConfig | None = None,
              n_angles: int = 256, seed: int = 0, samples: int = 48,
              strict: bool = False) -> list[TheoremReport]:
    """Run the selected checks for each eps on one grid; checks build its field on first read.

    The checks read the field only through member masks, member nodes and
    band nodes, which evaluate just the nodes that certified bounds leave
    undecided (spectra.SpectralField); the reports are those of a fully
    evaluated field, bit for bit.

    In non-strict mode a precondition violation (for example
    kappa(S)^2*eps >= 1 for T5, or a grid too coarse or too small for
    T3's component count) records a skipped report; strict mode re-raises
    it, which the CLI maps to exit code 2.  Every LAPACK call
    runs in numkernel under its BLAS pin, so reports do not depend on the
    BLAS thread count.
    """
    m = as_matrix(A)
    names = list(theorems) if theorems else list(SIGMA_CHECKS)
    eps_vals = [CONDITION.eps(e) for e in eps_list]
    unknown = [n for n in names if n not in SIGMA_CHECKS]
    if unknown:
        raise ValueError(f"unknown theorem selector(s): {unknown}")
    grid = grid_for(m, grid, max(eps_vals))
    transient = transient or TransientConfig(M=2.0, k_max=50)
    rng = np.random.default_rng(seed)
    alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    beta = complex(rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi)))

    shared = dict(A=m, grid=grid, config=transient, n_angles=n_angles,
                  S=as_matrix(default_similarity(m.n)), alpha=alpha, beta=beta, count=samples)
    reports: list[TheoremReport] = []
    for i_eps, e in enumerate(eps_vals):
        for i_t, name in enumerate(names):
            args = dict(shared, eps=e, seed=seed + 1009 * i_eps + 31 * i_t)
            runs = [(name, CONDITION)]
            if name in COMPANIONS:
                runs.append((COMPANIONS[name], PSEUDO))
            for check_name, kind in runs:
                try:
                    # Looked up at call time, so a check_* patched on this
                    # module (by a tracer, say) is the one that runs.
                    check = globals()[f"check_{check_name}"]
                    reports.append(check(**{a: args[a] for a in _SUITE_ARGS[name]}))
                except (PreconditionError, GridResolutionError, GridTooSmallError) as exc:
                    if strict:
                        raise
                    reports.append(TheoremReport(f"T{name[1:]}{kind.suffix}", True, None, None,
                                                 0.0, {"status": f"skipped: {exc}", "eps": e}))
    return reports
