"""Witness vectors, rank-one perturbations, certificate validation, and the
three-way equivalence checker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condspec import jsonio
from condspec.errors import NotAMemberError, ParseError
from condspec.numkernel import (
    as_matrix,
    eigenvalues,
    shifted_extremes,
    singular_values,
    spectral_norm,
)
from condspec.spectra import FLOAT_SLACK, auto_grid, compute_field, condition_number_at, in_condition_spectrum
from condspec.theorems import sample_points
from condspec import witness
from condspec.witness import (
    Witness,
    certificate_tolerances,
    check_equivalence,
    membership_from_perturbation,
    witness_from_json_obj,
    witness_perturbation,
)

DIAG = np.diag([1.0, -1.0])


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def boundary_adjacent_points(A, eps, seed, count=10):
    field = compute_field(A, auto_grid(A, eps, 61))
    return sample_points(A, field, eps, count, seed)


# --- the witness vector u -------------------------------------------------------

def test_vector_at_eigenvalue_is_eigenvector():
    u = witness_perturbation(DIAG, 1.0, 0.5).u
    assert np.linalg.norm(DIAG @ u - 1.0 * u) <= 1e-10
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_vector_diag_example():
    u = witness_perturbation(DIAG, 0.9, 0.5).u
    assert np.allclose(u, [1.0, 0.0])  # residual 0.1 <= 0.5 * 1.9
    assert np.linalg.norm(DIAG @ u - 0.9 * u) == pytest.approx(0.1)


def test_vector_residual_bound_random():
    A = random_complex(5, 77)
    eps = 0.3
    for z in boundary_adjacent_points(A, eps, seed=1):
        z = complex(z)
        if not in_condition_spectrum(A, z, eps):
            continue
        u = witness_perturbation(A, z, eps).u
        smax = float(singular_values(as_matrix(A).shifted(z))[0])
        assert np.linalg.norm((z * np.eye(5) - A) @ u) <= eps * smax * (1 + 1e-12)


def test_vector_rejects_non_member():
    with pytest.raises(NotAMemberError):
        witness_perturbation(DIAG, 10.0, 0.1)


# --- witness_perturbation -------------------------------------------------------

def test_perturbation_at_eigenvalue_is_zero():
    w = witness_perturbation(DIAG, -1.0, 0.3)
    assert w.eps_hat == 0.0
    assert np.all(w.E.entries == 0)


def test_perturbation_diag_example():
    w = witness_perturbation(DIAG, 0.9, 0.5)
    assert w.eps_hat == pytest.approx(0.1, rel=1e-12)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = -0.1
    assert np.allclose(w.E.entries, expected, atol=1e-14)
    assert np.allclose(DIAG + w.E.entries, np.diag([0.9, -1.0]), atol=1e-14)


def test_perturbation_invariants_random():
    A = random_complex(5, 31)
    eps = 0.4
    norm_a = spectral_norm(A)
    for z in boundary_adjacent_points(A, eps, seed=2):
        z = complex(z)
        if not in_condition_spectrum(A, z, eps):
            continue
        w = witness_perturbation(A, z, eps)
        for vec in (w.u, w.v, w.w):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(w.w, w.u) - 1.0) <= 1e-12  # w* u = 1 (w = u here)
        assert spectral_norm(w.E) == pytest.approx(w.eps_hat, abs=1e-12)
        smax = float(singular_values(as_matrix(A).shifted(z))[0])
        assert w.eps_hat <= eps * smax + 1e-12
        # z is an eigenvalue of A + E, with u the eigenvector
        assert np.linalg.norm((A + w.E.entries) @ w.u - z * w.u) <= 1e-10 * (1 + norm_a)
        shifted = (A + w.E.entries) - z * np.eye(5)
        assert np.linalg.svd(shifted, compute_uv=False)[-1] <= 1e-8 * (1 + norm_a)


def test_perturbation_eigen_contains_z_random():
    A = random_complex(5, 13)
    eps = 0.35
    tol = 1e-8 * (1 + spectral_norm(A))
    for z in boundary_adjacent_points(A, eps, seed=3):
        z = complex(z)
        if not in_condition_spectrum(A, z, eps):
            continue
        w = witness_perturbation(A, z, eps)
        eig = eigenvalues(A + w.E.entries)
        assert np.abs(eig - z).min() <= tol


def test_degenerate_1x1():
    a = [[1.5 - 0.5j]]
    w = witness_perturbation(a, 1.5 - 0.5j, 0.2)
    assert w.eps_hat == 0.0 and np.all(w.E.entries == 0)
    with pytest.raises(NotAMemberError):
        witness_perturbation(a, 2.0, 0.2)


# --- membership_from_perturbation ----------------------------------------------

def test_certificate_zero_at_eigenvalue():
    assert membership_from_perturbation(DIAG, 1.0, np.zeros((2, 2)), 0.2)


def test_certificate_oversized_norm_rejected():
    # even though z stays an eigenvalue of A + E, the norm budget is blown
    w = witness_perturbation(DIAG, 0.9, 0.5)
    smax = float(singular_values(as_matrix(DIAG).shifted(0.9))[0])
    oversized = w.E.entries * (2 * 0.5 * smax / spectral_norm(w.E))
    assert not membership_from_perturbation(DIAG, 0.9, oversized, 0.5)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_certificate_overflowing_float64_rejected():
    # ||E|| is within budget, but A + E - z*I overflows to -inf
    E = np.diag([-0.9e308, -0.9e308])
    assert not membership_from_perturbation(DIAG, 1e308, E, 0.95)


def test_certificate_of_another_size_raises():
    # A 1 x 1 E would broadcast to 0.4875 in every entry of A, which makes
    # 1.6 an eigenvalue although kappa(1.6 - A) = 4.33 < 1/0.2.
    assert not in_condition_spectrum(DIAG, 1.6, 0.2)
    with pytest.raises(ValueError, match="E is 1 x 1, A is 2 x 2"):
        membership_from_perturbation(DIAG, 1.6, [[0.4875]], 0.2)


def test_certificate_round_trip():
    A = random_complex(4, 8)
    eps = 0.3
    for z in boundary_adjacent_points(A, eps, seed=5):
        z = complex(z)
        if in_condition_spectrum(A, z, eps):
            w = witness_perturbation(A, z, eps)
            assert membership_from_perturbation(A, z, w.E, eps)


def test_certificate_soundness_implies_membership():
    # 3 => 1: an accepted certificate forces the ratio up to 1/eps
    A = random_complex(4, 21)
    eps = 0.25
    for z in boundary_adjacent_points(A, eps, seed=6):
        z = complex(z)
        if not in_condition_spectrum(A, z, eps):
            continue
        w = witness_perturbation(A, z, eps)
        if membership_from_perturbation(A, z, w.E, eps):
            assert condition_number_at(A, z) >= (1.0 / eps) * (1 - 1e-9)


def test_certificate_tolerances_are_the_ones_applied(monkeypatch):
    A = random_complex(4, 8)
    z, eps = complex(eigenvalues(A)[0]) + 0.01, 0.3
    w = witness_perturbation(A, z, eps)
    relative, absolute = certificate_tolerances(A)
    assert (relative, absolute) == (FLOAT_SLACK, 1e-8 * (1.0 + spectral_norm(A)))
    assert membership_from_perturbation(A, z, w.E, eps)
    # sigma_min(z*I - (A + E)) as the check finds it: the absolute
    # tolerance decides it exactly, and a relative slack of -1 leaves no
    # norm budget.
    smin = float(shifted_extremes(A + w.E.entries, z)[0][0])
    assert 0.0 < smin <= absolute
    for tolerances, accepted in (((relative, smin), True),
                                 ((relative, np.nextafter(smin, 0.0)), False),
                                 ((-1.0, absolute), False)):
        monkeypatch.setattr(witness, "certificate_tolerances", lambda A, t=tolerances: t)
        assert membership_from_perturbation(A, z, w.E, eps) == accepted


# --- check_equivalence ------------------------------------------------------------

def test_equivalence_at_eigenvalue():
    rep = check_equivalence(DIAG, 1.0, 0.3)
    assert rep.passed
    d = rep.details
    assert d["ratio_route"] and d["vector_route"] and d["certificate_route"]


def test_equivalence_far_outside():
    rep = check_equivalence(DIAG, 50.0, 0.3)
    assert rep.passed
    d = rep.details
    assert not (d["ratio_route"] or d["vector_route"] or d["certificate_route"])


def test_equivalence_boundary_flagged():
    # z = 3 at eps = 0.5 sits exactly on ratio = 2 = 1/eps
    rep = check_equivalence(DIAG, 3.0, 0.5)
    assert rep.details["boundary_indeterminate"]
    assert rep.passed


def test_equivalence_randomized_agreement():
    rng = np.random.default_rng(0)
    disagreements = 0
    for i in range(40):
        n = 2 + i % 5
        A = random_complex(n, 500 + i)
        eps = float(rng.uniform(0.05, 0.5))
        for z in boundary_adjacent_points(A, eps, seed=i, count=5):
            rep = check_equivalence(A, complex(z), eps)
            if not rep.passed:
                disagreements += 1
    assert disagreements == 0


# --- serialization -----------------------------------------------------------------

def test_witness_json_round_trip():
    A = random_complex(3, 50)
    z = complex(eigenvalues(A)[0]) + 0.01  # near-eigenvalue member
    assert in_condition_spectrum(A, z, 0.45)
    w = witness_perturbation(A, z, 0.45)
    text = jsonio.dumps(w.to_json_obj())
    back = witness_from_json_obj(jsonio.loads(text))
    assert back.z == w.z and back.eps_hat == w.eps_hat
    assert np.array_equal(back.u, w.u)
    assert np.array_equal(back.v, w.v)
    assert np.array_equal(back.w, w.w)
    assert np.array_equal(back.E.entries, w.E.entries)
    assert isinstance(back, Witness)


@pytest.mark.parametrize("key, value", [
    ("z", "x"), ("z", [0, 0, 0]), ("eps_hat", [1]), ("E", [[1]]), ("E", []),
    ("E", [[[1, 0], [0, 0]]]), ("E", [[[float("nan"), 0]]]), ("u", [[1, 0], [0, 1]]),
    ("w", None),
])
def test_witness_json_names_the_bad_entry(key, value):
    obj = jsonio.loads(jsonio.dumps(witness_perturbation(np.array([[0.5]]), 0.5, 0.5)
                                    .to_json_obj()))
    obj[key] = value
    with pytest.raises(ParseError, match=f"certificate '{key}'"):
        witness_from_json_obj(obj)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**1100, 2**1100) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=4),
    max_leaves=24)
certificate_like = st.fixed_dictionaries(
    {}, optional={key: json_values for key in ("z", "eps_hat", "u", "v", "w", "E")})


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, certificate_like))
def test_witness_json_fuzz_raises_only_parse_error(obj):
    try:
        witness_from_json_obj(obj)
    except ParseError:
        pass
