"""Per-theorem checks: worked examples, limit reductions, preconditions."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from condspec.errors import PreconditionError
from condspec.geometry import convex_hull, distance_to_disks, distance_to_polygon
from condspec.matrixio import generate
from condspec import spectra, theorems
from condspec.numkernel import (
    U_MACH,
    ComplexMatrix,
    as_matrix,
    condition_ratio,
    eigenvalues,
    spectral_norm,
)
from condspec.spectra import (
    CONDITION,
    PSEUDO,
    GridSpec,
    SpectralField,
    auto_grid,
    bounding_region,
    field_for,
)
from condspec.theorems import (
    TransientConfig,
    check_t1,
    check_t1e,
    check_t2,
    check_t2e,
    check_t3,
    check_t4,
    check_t4e,
    check_t5,
    check_t5e,
    check_t6,
    check_t6e,
    check_t7,
    check_t7e,
    check_t8,
    check_t8e,
    check_t9,
    check_t10,
    check_t10e,
    numerical_range_boundary,
    run_suite,
)

DIAG = np.diag([1.0, -1.0])
JORDAN2 = np.array([[0.0, 1.0], [0.0, 0.0]])


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def is_convex_polygon(poly, tol: float = 0.0) -> bool:
    """Cross-product sign test; collinear (degenerate) chains pass."""
    p = np.asarray(poly, dtype=np.float64)
    if len(p) < 3:
        return True
    a = np.roll(p, -1, axis=0) - p
    b = np.roll(a, -1, axis=0)
    cr = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return bool(np.all(cr >= -tol) or np.all(cr <= tol))


@pytest.fixture(scope="module")
def diag():
    """DIAG wrapped once, and a grid: the checks given both share one field."""
    A = ComplexMatrix(DIAG)
    return A, auto_grid(A, 0.5, 161)


def _planting(monkeypatch, field):
    """Make `field` the one field_for builds, on field.grid, for any matrix
    not holding one there yet."""
    monkeypatch.setattr(spectra.SpectralField, "of", staticmethod(lambda A, grid: field))
    return field.grid


# --- T1 ------------------------------------------------------------------------

def test_t1_boundary_equality():
    r = check_t1(np.diag([4.0, 1.0]), 0.25)  # kappa = 4 = 1/eps: both sides true
    assert r.passed and r.details["member"]


def test_t1_both_false():
    r = check_t1(np.diag([4.0, 1.0]), 0.2)  # kappa = 4 < 5
    assert r.passed and not r.details["member"]


def test_t1_singular_short_circuit():
    r = check_t1(np.array([[1.0, 1.0], [1.0, 1.0]]), 0.3)
    assert r.passed and r.details["status"] == "singular short-circuit"


def test_t1e_companion():
    assert check_t1e(np.diag([4.0, 1.0]), 0.25).passed
    assert check_t1e(np.diag([4.0, 1.0]), 2.0).passed  # pseudo eps may exceed 1


# --- T2 ------------------------------------------------------------------------

def test_t2_diag(diag):
    A, grid = diag
    r = check_t2(A, 0.5, grid)
    assert r.passed and r.lhs <= 3.0 + grid.cell_diagonal()


def test_t2_small_eps_members_hug_eigenvalues(diag):
    A, grid = diag
    r = check_t2(A, 0.01, grid)
    assert r.passed
    if r.lhs:  # any classified member stays near the unit-modulus eigenvalues
        assert r.lhs <= 1.03 * 1.0202 + grid.cell_diagonal()


def test_t2e_companion(diag):
    A, grid = diag
    r = check_t2e(A, 0.5, grid)
    assert r.passed and r.rhs == pytest.approx(1.5 + grid.cell_diagonal())


def _on_grid_edge(mask) -> bool:
    return bool(mask[0].any() or mask[-1].any() or mask[:, 0].any() or mask[:, -1].any())


def test_t2e_default_field_holds_the_pseudospectrum_of_a_small_matrix():
    # ||A|| = 0.2: the condition spectrum's disk at eps 0.4 has radius
    # 1.4/0.6 * 0.2 = 0.467, the pseudospectrum's 0.6.  The field a check
    # sizes for itself holds both, so no eps-member lies on its edge and
    # T2ε's largest member is within a grid diagonal of 0.6.
    A = np.diag([0.2, -0.2])
    field = theorems.field_for(A, None, 0.4)
    mask = field.member_mask(0.4, PSEUDO)
    assert mask.any() and not _on_grid_edge(mask)
    r = check_t2e(A, 0.4)
    assert r.passed and 0.6 - field.grid.cell_diagonal() <= r.lhs <= 0.6


# --- T3 ------------------------------------------------------------------------

def test_t3_diag_two_components(diag):
    A, grid = diag
    r = check_t3(A, 0.2, grid)
    assert r.passed and r.lhs == 2.0 and r.details["vector_matrix_rank"] == 2


def test_t3_jordan_vacuous():
    r = check_t3(JORDAN2, 0.3, 161)
    assert r.passed and r.lhs == 1.0 and "vacuous" in r.details["status"]


def test_t3_normal_four_components():
    q, _ = np.linalg.qr(random_complex(4, 9))
    A = q @ np.diag([2.0, 2.0j, -2.0, -2.0j]) @ q.conj().T
    r = check_t3(A, 0.05, 201)
    assert r.passed and r.lhs == 4.0 and r.details["vector_matrix_rank"] == 4


# --- T4 ------------------------------------------------------------------------

def test_t4_diag(diag):
    A, grid = diag
    r = check_t4(A, 0.3, grid, seed=4)
    assert r.passed and r.details["samples_used"] > 0


def test_t4_member_case_reduction():
    # for z inside, the bound reduces to (1-eps)/(2 eps ||A||)
    eps = 0.3
    z = 1.05 + 0.0j
    smin = np.linalg.svd(z * np.eye(2) - DIAG, compute_uv=False)[-1]
    assert 1.0 / smin >= (1 - eps) / (2 * eps * spectral_norm(DIAG))
    r = check_t4(DIAG, eps, 161, z_samples=[z])
    assert r.passed


def test_t4e_companion():
    A = random_complex(4, 33)
    r = check_t4e(A, 0.3, 121, seed=5)
    assert r.passed


# --- T5 ------------------------------------------------------------------------

def test_t5_unitary_preserves():
    A = random_complex(3, 40)
    S = generate("rotation", 3, angle=1.1).entries
    r = check_t5(A, S, 0.2, seed=6)
    assert r.passed and r.details["kappa_S"] == pytest.approx(1.0, abs=1e-12)


def test_t5_diagonal_similarity():
    S = np.diag([2.0, 1.0])
    A = S @ random_complex(2, 41) @ np.linalg.inv(S)
    r = check_t5(A, S, 0.1, seed=7)
    assert r.passed and r.details["target_eps"] == pytest.approx(0.4)


def test_t5_precondition_error():
    with pytest.raises(PreconditionError):
        check_t5(DIAG, np.diag([2.0, 1.0]), 0.4)  # kappa^2 eps = 1.6


def test_t5e_companion():
    A = random_complex(3, 42)
    S = np.diag([1.5, 1.0, 1.0])
    assert check_t5e(A, S, 0.3, seed=8).passed


def test_t5_with_no_member_to_check_is_vacuous():
    # A = 1e-300 I: no sample is a clear condition-spectrum member
    r = check_t5(1e-300 * np.eye(2), np.diag([2.0, 1.0]), 0.05, grid=21)
    assert r.passed and r.lhs is None and r.details["members_checked"] == 0
    assert r.details["status"] == "vacuous: no member outside the boundary band"


@pytest.mark.parametrize("eps", [1e-20, 1e-300])
@pytest.mark.parametrize("check", [check_t5, check_t5e])
def test_t5_counts_a_numerically_singular_target_point_as_a_member(check, eps):
    # At A's computed eigenvalue 5.37..., sigma_min(z*I - A) is 0.0; for
    # B = S^-1 A S it is 6.5e-16, below B's singularity threshold 1.7e-15
    # but far above eps.  condition_ratio gives +inf there, so z is a member
    # of B's spectra at every level, of both kinds.
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    r = check(A, theorems.default_similarity(2), eps, z_samples=np.empty(0))
    assert r.passed and r.lhs == np.inf and r.details["members_checked"] >= 1


@pytest.mark.parametrize("check", [check_t5, check_t5e])
def test_t5_rejects_similarity_of_another_size(check):
    with pytest.raises(ValueError) as exc:
        check(random_complex(3, 43), np.diag([1.5, 1.0]), 0.1, grid=21, seed=9)
    assert str(exc.value) == "S is 2 x 2, A is 3 x 3"


# --- T6 ------------------------------------------------------------------------

def test_t6_transient_growth_certified():
    A = np.array([[0.9, 5.0], [0.0, 0.9]])
    r = check_t6(A, 0.05, TransientConfig(M=2.0, k_max=50), grid=201)
    assert r.passed and r.details["status"] == "growth observed"
    assert r.lhs > r.rhs  # antecedent was certified, not vacuous


def test_t6_immediate_for_small_M():
    r = check_t6(DIAG, 0.3, TransientConfig(M=0.5, k_max=5))
    assert r.passed and r.details["status"].startswith("immediate")


def test_t6_eigenvalue_above_one_blows_up():
    A = np.diag([2.0, 0.1])
    r = check_t6(A, 0.05, TransientConfig(M=2.0, k_max=20), grid=161)
    assert r.passed and r.details["status"] == "growth observed"
    assert r.details["observed_sup"] > 2.0


def test_t6_precondition_strict():
    with pytest.raises(PreconditionError):
        check_t6(DIAG, 0.5, TransientConfig(M=2.0, k_max=5))  # M = 1/eps exactly


def test_t6_needs_no_grid_covering_the_bounding_disk():
    # D(0, (1.05/0.95)*||A||) has radius 5.7; the members on [-2, 2]^2 still
    # bound the radius from below, which is all the antecedent needs.
    A = np.array([[0.9, 5.0], [0.0, 0.9]])
    r = check_t6(A, 0.05, TransientConfig(2, 50), grid=GridSpec(-2, 2, -2, 2, 41, 41))
    assert r.passed and r.details["status"] == "growth observed"
    assert r.rhs < r.lhs <= bounding_region(A, 0.05)


def _field_certifying_radius_3():
    """A hand-built field on [-3, 3]^2 whose only members (ratio = inf) are
    the nodes with 2.8 <= |z| <= 3, so it certifies a condition-spectral
    radius near 3 whatever matrix it is planted on."""
    grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 31, 31)
    ratio = np.where((np.abs(grid.nodes()) >= 2.8) & (np.abs(grid.nodes()) <= 3.0),
                     np.inf, 1.0)
    ones = np.ones(ratio.shape)
    return SpectralField(grid, ones, ones, ratio)


@pytest.mark.parametrize("scale, passed, status", [
    (0.5, False, "decay observed with sup <= M"),
    (1.0, True, "horizon-insufficient"),
])
def test_t6_certified_radius_without_growth(scale, passed, status, monkeypatch):
    # The antecedent holds (radius about 3 - 0.28 > (1 + 4*0.1)/(1 - 0.2)),
    # yet no power of A exceeds M = 2: powers of 0.5*I decay, so the
    # supremum is ||A^0|| = 1 and the check fails; those of I stay at 1,
    # so a longer horizon might still grow and the check passes.
    A = scale * np.eye(2)
    grid = _planting(monkeypatch, _field_certifying_radius_3())
    r = check_t6(A, 0.1, TransientConfig(M=2.0, k_max=20), grid=grid)
    assert r.lhs > r.rhs == pytest.approx(1.75)
    assert r.passed is passed and r.details["status"] == status


def test_t6e_growth_observed():
    A = np.array([[0.9, 5.0], [0.0, 0.9]])
    r = check_t6e(A, 0.05, TransientConfig(M=2.0, k_max=50), grid=201)
    assert r.theorem_id == "T6ε" and r.passed and r.details["status"] == "growth observed"
    assert r.lhs > r.rhs == pytest.approx(1.0 + 2.0 * 0.05)
    assert r.details["observed_sup"] > 2.0


def test_t6e_vacuous_antecedent():
    # pseudospectral radius about 0.55 stays below 1 + M*eps = 1.1
    r = check_t6e(np.diag([0.5, 0.2]), 0.05, TransientConfig(M=2.0, k_max=20), grid=121)
    assert r.passed and r.details["status"].startswith("vacuous")
    assert r.lhs <= r.rhs


def test_transient_config_validation():
    with pytest.raises(ValueError):
        TransientConfig(M=0.0, k_max=5)
    assert TransientConfig(M=2.0, k_max=1).k_max == 1  # the CLI's --k-max low edge
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        TransientConfig(M=2.0, k_max=0)


# --- T7 ------------------------------------------------------------------------

def test_t7_k_zero_trivial():
    r = check_t7(DIAG, 0.3, k_list=[0], grid=81)
    assert r.passed and r.lhs is None and r.details["status"].startswith("vacuous")


@pytest.mark.parametrize("A, eps, grid", [(1e-300 * np.eye(2), 0.05, 21), (DIAG, 0.4, None)])
def test_t7_with_no_counted_pair_is_vacuous(A, eps, grid):
    # 1e-300 I has no member; at eps = 0.4 only k = 0 is admissible
    r = check_t7(A, eps, grid=grid)
    assert r.passed and r.lhs is None
    assert r.details["status"] == "vacuous: no (member, k) pair with k > 0"


def test_t7_small_eps_reduces_to_eigenvalue_power_bound():
    A = random_complex(3, 50)
    r = check_t7(A, 1e-6, k_list=[0, 1, 2, 3], grid=81)
    assert r.passed
    # directly: ||A^k|| >= |lambda|^k for eigenvalues
    from condspec.numkernel import power_norms
    norms = power_norms(A, 3)
    for lam in eigenvalues(A):
        for k in range(4):
            assert norms[k] >= abs(lam) ** k * (1 - 1e-9)


def test_t7_random_admissible_range():
    A = random_complex(4, 51)
    r = check_t7(A, 0.05, k_list=list(range(10)), grid=121, seed=9)
    assert r.passed  # (2*9+1)*0.05 = 0.95 < 1 admissible


def test_t7_inadmissible_k():
    with pytest.raises(PreconditionError):
        check_t7(DIAG, 0.2, k_list=[3], grid=81)  # 7*0.2 = 1.4 >= 1


def test_t7e_leaves_out_members_on_the_level():
    # sigma_min(1.25 - diag(1, -1)) = 0.25 exactly: the sample sits in the
    # boundary band and only the two eigenvalues are members, as in T7σ.
    r = check_t7e(DIAG, 0.25, k_list=[1], grid=21, z_samples=[1.25])
    assert r.passed and r.details["members"] == 2


def test_t7_reports_the_largest_slack_it_grants():
    # The eigenvalues +-3 are the members (kappa(0*I - A) = 1 is not one),
    # and each (member, 4) pair is granted 1e-10 * 3**4 = 8.1e-9.
    A = np.diag([3.0, -3.0])
    r = check_t7(A, 0.05, k_list=[1, 2, 3, 4], grid=41, z_samples=[0.0])
    assert r.passed and r.details["members"] == 2
    assert r.slack_used == 1e-10 * 3.0 ** 4
    assert check_t7(A, 0.05, k_list=[1, 2, 3, 4], grid=41).slack_used >= 1e-10 * 3.0 ** 4


def test_t7_checks_the_members_t5_checks():
    # At z = 1e-300, z*I - 1e-300*I rounds to kappa 1: the eigenvalues are
    # not clear members, so T7, as T5, checks none.
    A = 1e-300 * np.eye(2)
    assert check_t5(A, np.eye(2), 0.05, seed=3).details["members_checked"] == 0
    r = check_t7(A, 0.05, seed=3)
    assert r.details["members"] == 0 and r.lhs is None and r.slack_used == 0.0


@pytest.mark.parametrize("check, lhs, status", [
    (check_t7, 1.176470589235294e+199, "partial: 16 of 18"),
    (check_t7e, 1e+190, "partial: 22 of 24"),
])
def test_t7_counts_the_bounds_that_overflow(check, lhs, status):
    # |lam|**k overflows from k = 2 on: only the k = 1 pairs are compared.
    r = check(np.array([[1e200, 1.0], [0.0, 1e200]]), 0.05, grid=41)
    assert r.passed and r.lhs == lhs and r.details["members"] == 2
    assert r.details["status"] == (f"{status} (member, k) bounds overflow float64; "
                                   "lhs covers the rest")


@pytest.mark.parametrize("check", [check_t7, check_t7e])
def test_t7_skips_when_every_bound_overflows(check):
    r = check(np.diag([1e300, -1e300]), 0.05, k_list=[2, 3], grid=41)
    assert r.passed and r.lhs is None and r.slack_used == 0.0
    assert r.details["status"] == "skipped: every (member, k) bound overflows float64"


def test_t7e_inadmissible_k():
    with pytest.raises(PreconditionError, match=r"k = 4 inadmissible: k\*eps = 1\.2 >= \|\|A\|\|"):
        check_t7e(DIAG, 0.3, k_list=[0, 4], grid=81)  # 4*0.3 >= ||A|| = 1


def test_t7e_no_admissible_k():
    with pytest.raises(PreconditionError, match="no admissible k"):
        check_t7e(np.zeros((2, 2)), 0.2, grid=81)  # k*eps < ||A|| = 0 fails for every k


@pytest.mark.parametrize("check", [check_t7, check_t7e])
def test_t7_empty_k_list_rejected_as_empty(check):
    # k = 1 is admissible at eps = 0.1 for both kinds; the list is just empty.
    with pytest.raises(PreconditionError, match="k_list is empty"):
        check(DIAG, 0.1, k_list=[], grid=81)


# --- T8 ------------------------------------------------------------------------

@pytest.mark.parametrize("kind", [CONDITION, PSEUDO], ids=["condition", "pseudo"])
def test_eps_to_zero_limit_of_pad_radius_and_disks(kind):
    # At eps = 2^-k the pad goes to 0, the bounding radius to ||A|| and
    # T8's disks to the plain Gerschgorin disks; at eps = 0 itself the
    # validator names the error.
    m = as_matrix(random_complex(4, 62))
    absA = np.abs(m.entries)
    rows = absA.sum(axis=1) - np.diag(absA)
    pads = []
    for k in range(1, 61):
        e = 2.0 ** -k
        pads.append(kind.pad(e, m.norm))
        assert 0.0 < pads[-1] <= 4.0 * e * m.norm
        assert 0.0 <= kind.radius(e, m.norm) - m.norm <= pads[-1] + 4.0 * U_MACH * m.norm
        radii = theorems._gerschgorin_disks(kind, m, e)[1]
        assert np.array_equal(radii, rows + 2.0 * pads[-1])  # sqrt(N) = 2: exact
    assert pads == sorted(pads, reverse=True) and len(set(pads)) == len(pads)
    # Below half an ulp of ||A|| and of every row sum, the limit is exact.
    assert kind.radius(2.0 ** -60, m.norm) == m.norm
    assert np.array_equal(theorems._gerschgorin_disks(kind, m, 2.0 ** -60)[1], rows)
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        kind.eps(0.0)


def _condition_disks(A, eps):
    return theorems._gerschgorin_disks(CONDITION, as_matrix(A), CONDITION.eps(eps))


def test_gerschgorin_reduces_to_classical():
    A = random_complex(3, 60)
    centers, radii = _condition_disks(A, 1e-12)
    absA = np.abs(A)
    for j, (center, radius) in enumerate(zip(centers, radii)):
        assert center == complex(A[j, j])
        assert radius == pytest.approx(absA[j].sum() - absA[j, j], rel=1e-9)
    # classical Gerschgorin containment
    assert (distance_to_disks(eigenvalues(A), centers, radii) <= 1e-9).all()


def test_gerschgorin_diag_formula():
    centers, radii = _condition_disks(DIAG, 0.5)
    assert centers[0] == 1.0 and centers[1] == -1.0
    assert radii[0] == pytest.approx(np.sqrt(2) * 2.0, rel=1e-12)


def test_t8_containment_random():
    A = random_complex(4, 61)
    assert check_t8(A, 0.3, 121).passed


def test_t8e_companion(diag):
    A, grid = diag
    assert check_t8e(A, 0.3, grid).passed


def test_t3_and_t8_memory_is_bounded_by_the_members(monkeypatch):
    # n = 64 at eps 0.4 on a 161 x 161 grid: 10,162 condition members and
    # 3,213 pseudospectrum members.  A members x n array of complex
    # differences and their moduli takes 15 MiB; a running minimum over the
    # eigenvalues or disks keeps a few arrays of one value per member.  The
    # field of a normal matrix is |z - d_j| in closed form, which spares the
    # test 25,921 SVDs at n = 64.
    rng = np.random.default_rng(5)
    d = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
    A = as_matrix(np.diag(d))
    grid = auto_grid(A, 0.4, 161)
    dist = np.abs(grid.nodes()[:, :, None] - d)
    smin, smax = dist.min(axis=2), dist.max(axis=2)
    field = SpectralField(grid, smin, smax, condition_ratio(smin, smax, A.n))
    _planting(monkeypatch, field)
    assert field.member_nodes(0.4).size > 10_000
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for check in (check_t3, check_t8, check_t8e):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert check(A, 0.4, grid).passed
            assert tracemalloc.get_traced_memory()[1] - base < 2**20, check.__name__
    finally:
        if not tracing:
            tracemalloc.stop()


# --- numerical range -------------------------------------------------------------

def test_range_hermitian_degenerates_to_segment():
    points = numerical_range_boundary(DIAG, 64)
    assert np.abs(points.imag).max() <= 1e-10
    assert points.real.min() >= -1 - 1e-10
    assert points.real.max() <= 1 + 1e-10


def test_range_normal_matches_eigenvalue_hull():
    q, _ = np.linalg.qr(random_complex(3, 70))
    eig = np.array([1.0, 1.0j, -1.0 - 1.0j])
    A = q @ np.diag(eig) @ q.conj().T
    points = numerical_range_boundary(A, 512)
    hull = convex_hull(np.column_stack([eig.real, eig.imag]))
    pts = np.column_stack([points.real, points.imag])
    assert distance_to_polygon(pts, hull).max() <= 1e-6


def test_range_jordan_block_is_half_disk_radius():
    moduli = np.abs(numerical_range_boundary(JORDAN2, 256))
    assert np.abs(moduli - 0.5).max() <= 1e-6
    # Rayleigh-quotient oracle: random unit vectors never exceed the radius
    rng = np.random.default_rng(3)
    v = rng.standard_normal((4000, 2)) + 1j * rng.standard_normal((4000, 2))
    v /= np.linalg.norm(v, axis=1)[:, None]
    rayleigh = np.abs(np.einsum("ki,ij,kj->k", v.conj(), JORDAN2, v))
    assert rayleigh.max() <= 0.5 + 1e-12
    assert rayleigh.max() >= 0.5 - 1e-2


def test_range_invariants():
    A = as_matrix(random_complex(5, 71))
    norm = spectral_norm(A)
    assert np.abs(numerical_range_boundary(A, 128)).max() <= norm + 1e-10
    check_t9(A, 0.1, n_angles=128)
    poly = A._facts[("W", 128)]  # the polygon T9 builds from those points
    assert is_convex_polygon(poly, tol=1e-9 * (1 + norm) ** 2)
    eig = eigenvalues(A)
    pts = np.column_stack([eig.real, eig.imag])
    assert distance_to_polygon(pts, poly).max() <= 1e-8 * (1 + norm) + norm * (np.pi / 128) ** 2


def test_range_rejects_few_angles():
    assert len(numerical_range_boundary(DIAG, 8)) == 8  # the CLI's --angles low edge
    for n_angles in (4, 7):
        with pytest.raises(ValueError, match="n_angles must be >= 8"):
            numerical_range_boundary(DIAG, n_angles)


# --- T9 ------------------------------------------------------------------------

def test_t9_small_eps_reduces_to_spectrum_in_range():
    A = random_complex(3, 80)
    r = check_t9(A, 1e-6, 121)
    assert r.passed


def test_t9_normal_members_near_range():
    q, _ = np.linalg.qr(random_complex(3, 81))
    A = q @ np.diag([1.0, -1.0, 1.0j]) @ q.conj().T
    r = check_t9(A, 0.2, 161)
    assert r.passed


def test_t9_jordan_disk():
    r = check_t9(JORDAN2, 0.2, 161)
    # eps1 = 0.5 at ||A|| = 1: members stay within 0.5 + slack of the half disk
    assert r.passed and r.rhs == pytest.approx(0.5 + r.slack_used)


# --- T10 -----------------------------------------------------------------------

def test_t10_identity_map():
    r = check_t10(random_complex(3, 90), 0.0, 1.0, 0.3, seed=10)
    assert r.passed and r.lhs <= 1e-10


def test_t10_beta_zero_singleton():
    r = check_t10(random_complex(3, 91), 2.0 + 1.0j, 0.0, 0.3, seed=11)
    assert r.passed and r.details["member_at_alpha"]


def test_t10_random_value_equality():
    A = random_complex(4, 92)
    alpha = 2.0 + 1.0j
    beta = 3.0 * np.exp(1j * np.pi / 7)
    r = check_t10(A, alpha, beta, 0.3, count=100, seed=12)
    assert r.passed and r.lhs <= 1e-10 and r.details["membership_mismatches"] == 0


def test_t10e_companion():
    A = random_complex(3, 93)
    r = check_t10e(A, 1.0 - 2.0j, 0.5j, 0.4, seed=13)
    assert r.passed and r.lhs <= 1e-10


@pytest.mark.parametrize("kind", [CONDITION, PSEUDO], ids=["sigma", "eps"])
def test_t10_membership_half_counts_clear_disagreements(kind):
    # Scaled by the wrong power of |beta| (1.5), the two sides disagree on
    # membership at clear sample points, which the membership half counts
    # besides the relative-value bound.
    wrong = dataclasses.replace(kind, degree=1 - kind.degree)
    r = theorems._affine_report(wrong, generate("jordan", 4, value=0.9), 0.3 + 0.1j,
                                1.5 * np.exp(0.7j), 0.2, None, 100, 0)
    assert not r.passed and r.details["membership_mismatches"] > 0


def test_t10_poles_on_both_sides_agree():
    # z = +-2 = alpha + beta * (+-1) are eigenvalues of alpha*I + beta*A exactly,
    # and (z - alpha) / beta = +-1 those of A: both sides are poles there,
    # which is agreement; only the third point is compared by value.
    r = check_t10(np.diag([1.0, -1.0]), 0.0, 2.0, 0.2, z_samples=[2.0, -2.0, 0.5 + 1j])
    assert r.passed and r.details == {"compared": 1, "membership_mismatches": 0}


# --- suite ------------------------------------------------------------------------

def test_suite_runs_all_and_is_deterministic():
    A = random_complex(3, 100)
    r1 = run_suite(A, [0.1, 0.3], grid=121, samples=16, seed=3)
    r2 = run_suite(A, [0.1, 0.3], grid=121, samples=16, seed=3)
    assert [r.to_dict() for r in r1] == [r.to_dict() for r in r2]
    assert all(r.passed for r in r1)
    ids = {r.theorem_id for r in r1}
    assert "T3σ" in ids and "T10ε" in ids and len(ids) == 19


def test_suite_eps_to_zero_surrogate_reduces_to_plain_spectrum():
    # at eps = 1e-6 every check degenerates to its eigenvalue-theorem form
    A = random_complex(4, 101)
    reports = run_suite(A, [1e-6], grid=121, samples=16, seed=4)
    assert all(r.passed for r in reports)
    t2 = next(r for r in reports if r.theorem_id == "T2σ")
    if not t2.skipped and t2.lhs:
        assert t2.lhs <= spectral_norm(A) * (1 + 1e-5) + 2 * t2.slack_used


def test_suite_skips_precondition_violations():
    reports = run_suite(DIAG, [0.4], grid=121, samples=8, theorems=["t5"])
    assert len(reports) == 2  # T5σ skipped + T5ε runs
    skipped = [r for r in reports if r.skipped]
    assert len(skipped) == 1 and skipped[0].theorem_id == "T5σ"


def test_suite_strict_raises():
    with pytest.raises(PreconditionError):
        run_suite(DIAG, [0.4], grid=121, theorems=["t5"], strict=True)


def test_suite_calls_companions_by_module_name(monkeypatch):
    import condspec.theorems as theorems
    from condspec.report import TheoremReport

    calls = []

    def fake_t5e(A, S, eps, grid=None, z_samples=None, count=64, seed=0):
        calls.append((eps, count))
        return TheoremReport("T5ε", True, None, None, 0.0, {"status": "patched"})

    monkeypatch.setattr(theorems, "check_t5e", fake_t5e)
    reports = run_suite(DIAG, [0.1], grid=61, samples=8, theorems=["t5"])
    assert [r.theorem_id for r in reports] == ["T5σ", "T5ε"]
    assert reports[1].details == {"status": "patched"} and calls == [(0.1, 8)]


@pytest.mark.parametrize("A", [DIAG, generate("jordan", 4, value=0.9).entries,
                               generate("random", 3, seed=8).entries], ids=["diag", "J4(0.9)", "random3"])
def test_suite_samples_through_each_check(A):
    # run_suite draws no points itself: each sampled check draws its own
    # from the suite's field, with the suite's count and per-theorem seed.
    eps, grid, samples, seed = 0.2, 61, 12, 7
    names = ["t4", "t5", "t7"]
    suite = run_suite(A, [eps], grid=grid, samples=samples, seed=seed, theorems=names)
    m = ComplexMatrix(A)
    spec = spectra.grid_for(m, grid, eps)
    S = theorems.default_similarity(m.n)
    direct = []
    for i_t, name in enumerate(names):
        for suffix in ("", "e"):
            check = getattr(theorems, f"check_{name}{suffix}")
            args = (m, S, eps) if name == "t5" else (m, eps)
            direct.append(check(*args, grid=spec, count=samples, seed=seed + 31 * i_t))
    assert [r.to_dict() for r in suite] == [r.to_dict() for r in direct]


def test_suite_rejects_unknown_selector(monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid was sized before the selectors were checked")

    monkeypatch.setattr(theorems, "grid_for", no_grid)
    with pytest.raises(ValueError, match="t11"):
        run_suite(DIAG, [0.2], theorems=["t11"])


def test_suite_propagates_grid_too_small():
    # Strict mode raises it; otherwise T3σ, the one check that needs the
    # bounding disk on the grid, is skipped and names the disk.
    from condspec.errors import GridTooSmallError
    from condspec.spectra import GridSpec
    grid = GridSpec(-1, 1, -1, 1, 21, 21)
    with pytest.raises(GridTooSmallError):
        run_suite(DIAG, [0.5], grid=grid, strict=True)
    [t3] = [r for r in run_suite(DIAG, [0.5], grid=grid) if r.theorem_id == "T3σ"]
    assert t3.passed and t3.lhs is None
    assert t3.details["status"].startswith("skipped: grid [-1, 1] x [-1, 1] does not contain")
    assert "D(0, 3)" in t3.details["status"]


def test_suite_degenerate_1x1():
    reports = run_suite(np.array([[1.5 - 0.5j]]), [0.2, 0.4], grid=61, samples=8)
    assert all(r.passed for r in reports)
    t3 = [r for r in reports if r.theorem_id == "T3σ"]
    assert t3 and all(r.lhs == 1.0 for r in t3)


def test_suite_on_shared_matrices_matches_fresh_runs():
    # A ComplexMatrix keeps the facts of earlier runs (norm, eigenvalues,
    # power norms, its fields and their member sets).  Running A, then B,
    # then A again on the same instances must write the reports of runs on
    # freshly wrapped copies, to the bit.
    from condspec import jsonio

    eps = (0.05, 0.2, 0.4)

    def suite(M):
        return jsonio.dumps([r.to_dict() for r in run_suite(M, eps, grid=auto_grid(M, 0.4, 61),
                                                            samples=12, seed=3)])

    A = generate("jordan", 4, value=0.9)
    B = ComplexMatrix(random_complex(3, 21))
    runs = [suite(M) for M in (A, B, A)]
    assert runs == [suite(np.array(M.entries)) for M in (A, B, A)]


# --- the field is a fact of its matrix --------------------------------------------

def _counting_fields(monkeypatch):
    """Count the fields spectra builds from here on."""
    built = []
    make = spectra.SpectralField.of

    def counted(A, grid):
        built.append(grid)
        return make(A, grid)

    monkeypatch.setattr(spectra.SpectralField, "of", staticmethod(counted))
    return built


def test_suite_of_t1_and_t10_builds_no_field(monkeypatch):
    def no_field(A, grid):
        raise AssertionError("T1 and T10 read no field")

    monkeypatch.setattr(spectra.SpectralField, "of", staticmethod(no_field))
    reports = run_suite(random_complex(4, 30), [0.1, 0.3], theorems=["t1", "t10"], samples=8)
    assert len(reports) == 8 and all(r.passed for r in reports)


def test_suite_builds_one_field_for_every_eps(monkeypatch):
    built = _counting_fields(monkeypatch)
    reports = run_suite(random_complex(3, 31), [0.05, 0.2, 0.4], theorems=["t2"], grid=41)
    assert len(reports) == 6 and len(built) == 1


def test_checks_on_one_matrix_and_grid_share_one_field(monkeypatch):
    built = _counting_fields(monkeypatch)
    A, grid = ComplexMatrix(random_complex(3, 32)), GridSpec.square(6.0, 31)
    check_t2(A, 0.2, grid)
    check_t8e(A, 0.3, GridSpec.square(6.0, 31))  # an equal grid: the same field
    assert built == [grid] and field_for(A, grid, 0.2) is field_for(A, grid, 0.3)
    check_t2(np.array(A.entries), 0.2, grid)  # a raw array is wrapped anew: its own field
    assert len(built) == 2


def test_grids_differing_in_a_zero_sign_get_their_own_fields(monkeypatch):
    # GridSpec equality takes -0.0 for 0.0, but an axis ends on its bound's
    # own bits, and field.csv writes that node's re as -0 or 0.
    built = _counting_fields(monkeypatch)
    A = ComplexMatrix(random_complex(3, 33))
    plus, minus = GridSpec(-3.0, 0.0, -1.0, 1.0, 7, 5), GridSpec(-3.0, -0.0, -1.0, 1.0, 7, 5)
    assert plus == minus
    fields = [field_for(A, g, 0.2) for g in (plus, minus, plus)]
    assert built == [plus, minus, plus]  # the matrix keeps the last one only
    assert fields[0] is not fields[1] and fields[1] is not fields[2]
    assert [np.signbit(f.grid.re_axis()[-1]) for f in fields] == [False, True, False]


def test_checks_over_several_eps_keep_one_field(monkeypatch):
    # Direct checks given no grid size their auto grids by their own eps,
    # so each eps asks for another grid; the matrix keeps the last field.
    built = _counting_fields(monkeypatch)
    A = ComplexMatrix(random_complex(8, 36))
    for e in (0.05, 0.1, 0.2, 0.3, 0.4):
        assert check_t2(A, e).passed
    assert len(set(built)) == len(built) == 5
    assert [key for key in A._facts if "field" in key] == ["field"]
    assert A._facts["field"][1].grid == built[-1]
    assert field_for(A, None, 0.4) is A._facts["field"][1] and len(built) == 5


def test_a_field_does_not_outlive_its_matrix():
    # The field holds no reference to its matrix, so dropping the matrix
    # frees the field at once, without waiting for the cyclic collector.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        A = ComplexMatrix(random_complex(3, 34))
        field = weakref.ref(field_for(A, GridSpec.square(5.0, 21), 0.2))
        assert field() is not None
        del A
        assert field() is None
    finally:
        if was_enabled:
            gc.enable()


def test_grid_takes_none_an_int_or_a_gridspec():
    A = ComplexMatrix(random_complex(3, 35))
    field = field_for(A, 21, 0.2)
    assert field_for(A, field.grid, 0.2) is field
    for grid in (field, 21.0, "21"):
        with pytest.raises(TypeError, match="grid must be None, an int or a GridSpec"):
            check_t2(A, 0.2, grid)
    with pytest.raises(TypeError, match="got SpectralField"):
        run_suite(A, [0.2], grid=field)
