"""Membership predicates, grid fields, radii, distances, components."""

import dataclasses
import importlib
import inspect
import io
import os
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import condspec
from condspec import spectra, theorems
from condspec.errors import GridResolutionError, GridTooSmallError
from condspec.matrixio import generate
from condspec.numkernel import eigenvalues, spectral_norm
from condspec.spectra import (
    CONDITION,
    PSEUDO,
    GridSpec,
    SpectralField,
    auto_grid,
    bounding_region,
    component_count,
    compute_field,
    condition_number_at,
    condition_spectral_radius,
    distance_to_condition_spectrum,
    in_condition_spectrum,
    in_pseudospectrum,
    read_field_csv,
    read_field_grid,
    write_field_csv,
)

DIAG = np.diag([1.0, -1.0])


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# --- eps / GridSpec validation -----------------------------------------------

def test_epsilon_validation():
    for kind in (CONDITION, PSEUDO):
        assert kind.eps(0.3) == 0.3
        assert type(kind.eps(np.float32(0.25))) is float and kind.eps(np.float32(0.25)) == 0.25
        for bad in (0.0, -0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="eps must be finite and > 0"):
                kind.eps(bad)
    # condition range excludes 1, pseudospectrum admits any positive value
    with pytest.raises(ValueError, match="condition-spectrum eps must satisfy 0 < eps < 1"):
        CONDITION.eps(1.5)
    assert PSEUDO.eps(1.5) == 1.5


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, -1.0, 1.0, 10, 10)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, -1.0, 1.0, 1, 10)
    g = GridSpec(-2.0, 2.0, -1.0, 1.0, 5, 3)
    assert g.dre == 1.0 and g.dim == 1.0
    assert g.cell_diagonal() == pytest.approx(np.sqrt(2))
    assert g.contains_disk(1.0) and not g.contains_disk(1.5)


# --- condition_number_at ------------------------------------------------------

def test_kappa_at_zero_matrix():
    assert condition_number_at(np.zeros((2, 2)), 1.0) == 1.0


def test_kappa_at_eigenvalue_is_infinite():
    assert condition_number_at(DIAG, 1.0) == np.inf


def test_kappa_at_diagonal_shift():
    # singular values of 3I - diag(1,-1) are {2, 4}
    assert condition_number_at(DIAG, 3.0) == 2.0


def test_kappa_at_exactly_one_for_n1():
    assert condition_number_at([[2.0 + 1.0j]], 5.0 - 2.0j) == 1.0


# --- membership ----------------------------------------------------------------

def test_eigenvalues_always_members():
    for seed in (1, 5):
        A = random_complex(4, seed)
        for lam in eigenvalues(A):
            for eps in (0.05, 0.3, 0.9):
                assert in_condition_spectrum(A, complex(lam), eps)


def test_condition_membership_examples():
    assert not in_condition_spectrum(DIAG, 3.0, 0.4)  # kappa 2 < 2.5
    assert not in_condition_spectrum(np.zeros((3, 3)), 0.7, 0.5)  # kappa 1 < 2
    assert in_condition_spectrum(DIAG, 3.0, 0.5)  # kappa 2 reaches 1/eps


def test_pseudo_membership_examples():
    assert in_pseudospectrum(DIAG, 1.0, 0.01)
    assert not in_pseudospectrum(DIAG, 3.0, 1.0)  # sigma_min = 2 > 1
    assert in_pseudospectrum(DIAG, 3.0, 2.0)      # boundary: sigma_min = 2 <= 2


# At eps = 0 both spectra are the eigenvalues, where the ratio is +inf and
# sigma_min is 0.  Every rule of a kind that takes eps gives its limit as
# eps -> 0+ there: no ZeroDivisionError, no nan, no RuntimeWarning.
_RULES_AT_EPS_ZERO = {  # rule: (its call at eps = 0, condition value, pseudo value)
    "level": (lambda f, q: f(0.0, 2.0), np.inf, 0.0),
    "inside": (lambda f, q: f(q, 0.0), [True, False], [True, False]),
    "off_level": (lambda f, q: f(q, 0.0), [np.inf, 1.0], [1.0, np.inf]),
    "depth": (lambda f, q: f(q, 0.0), [np.inf, 0.0], [np.inf, 0.0]),
    "radius": (lambda f, q: f(0.0, 3.0), 3.0, 3.0),
    "pad": (lambda f, q: f(0.0, 3.0, 2.0), 0.0, 0.0),
}


def test_every_rule_taking_eps_is_checked_at_zero():
    takes_eps = {f.name for f in dataclasses.fields(spectra.SpectrumKind)
                 if callable(getattr(CONDITION, f.name))
                 and "e" in inspect.signature(getattr(CONDITION, f.name)).parameters}
    assert takes_eps == set(_RULES_AT_EPS_ZERO)


@pytest.mark.parametrize("kind", [CONDITION, PSEUDO], ids=["sigma", "eps"])
@pytest.mark.parametrize("rule", list(_RULES_AT_EPS_ZERO))
def test_kind_rules_at_eps_zero(kind, rule):
    call, *expected = _RULES_AT_EPS_ZERO[rule]
    expected = expected[kind is PSEUDO]
    q = np.array([np.inf, 2.0]) if kind is CONDITION else np.array([0.0, 0.5])  # eigenvalue, not
    f = getattr(kind, rule)
    assert np.array_equal(call(f, q), expected)
    assert [call(f, x) for x in q] == ([expected] * 2 if np.ndim(expected) == 0 else expected)


def test_membership_monotone_in_eps():
    A = random_complex(3, 9)
    field = compute_field(A, auto_grid(A, 0.4, 61))
    inner = field.member_mask(0.1)
    outer = field.member_mask(0.4)
    assert np.all(outer[inner])


# --- bounding_region --------------------------------------------------------------

def test_bounding_region_formulas():
    q = generate("rotation", 3, angle=0.3)  # norm exactly 1
    assert bounding_region(q, 0.5, CONDITION) == pytest.approx(3.0)
    assert bounding_region(q, 0.5, PSEUDO) == pytest.approx(1.5)
    # eps -> 0 limit: both radii reduce to ||A||
    assert bounding_region(q, 1e-9, CONDITION) == pytest.approx(1.0, abs=1e-8)
    assert bounding_region(q, 1e-9, PSEUDO) == pytest.approx(1.0, abs=1e-8)


# --- kinds are records ----------------------------------------------------------

def test_auto_grid_widens_for_every_kind_but_the_condition_record():
    # diag(0.05, -0.05) at eps = 0.8: the condition disk has radius 0.45,
    # under the 0.5 floor; the pseudospectrum's 0.85 widens to 0.935.
    A = np.diag([0.05, -0.05])
    assert auto_grid(A, 0.8, 21).re_max == 0.5
    assert auto_grid(A, 0.8, 21, CONDITION).re_max == 0.5
    assert auto_grid(A, 0.8, 21, PSEUDO).re_max == pytest.approx(0.935)
    for name in ("condition", "pseudo", "bogus"):
        with pytest.raises(AttributeError):
            auto_grid(A, 0.8, 21, name)


def _functions_taking_a_kind() -> dict:
    """'<module or class>.<name>': the kind parameter's default, for every
    public function and method of the package with a `kind` parameter
    (but matrixio.generate, whose kind names a generator)."""
    found = {}
    for path in Path(condspec.__file__).parent.glob("*.py"):
        if path.stem in ("__main__", "matrixio"):
            continue
        module = importlib.import_module(f"condspec.{path.stem}")
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c) and c.__module__ == module.__name__]
        for owner in owners:
            for name, f in vars(owner).items():
                if (inspect.isfunction(f) and f.__module__ == module.__name__
                        and not name.startswith("_") and "kind" in inspect.signature(f).parameters):
                    key = f"{owner.__name__.rpartition('.')[2]}.{name}"
                    found[key] = inspect.signature(f).parameters["kind"].default
    return found


@pytest.mark.parametrize("kind", [CONDITION, PSEUDO], ids=["condition", "pseudo"])
def test_every_function_taking_a_kind_takes_the_record(kind):
    A = random_complex(3, 4)
    field = compute_field(A, GridSpec(-4, 4, -4, 4, 41, 41))
    eps, far = 0.3, 50.0
    nodes = field.grid.nodes()
    q = field.sigma_min if kind is PSEUDO else field.ratio
    mask = q <= eps if kind is PSEUDO else q >= 1.0 / eps
    band = nodes[(q >= kind.level(eps, 0.5)) & (q <= kind.level(eps, 2.0))]
    norm = spectral_norm(A)
    radius = norm + eps if kind is PSEUDO else (1 + eps) / (1 - eps) * norm
    candidates = np.concatenate([nodes[mask], eigenvalues(A)])
    checks = {
        "SpectralField.quantity": lambda k: np.array_equal(field.quantity(k), q),
        "SpectralField.member_mask": lambda k: np.array_equal(field.member_mask(eps, k), mask),
        "SpectralField.member_nodes": lambda k: np.array_equal(field.member_nodes(eps, k),
                                                               nodes[mask]),
        "SpectralField.band_nodes": lambda k: np.array_equal(field.band_nodes(eps, k), band),
        "spectra.in_spectrum": lambda k: [spectra.in_spectrum(A, z, eps, k)
                                          for z in (eigenvalues(A)[0], far)] == [True, False],
        "spectra.auto_grid": lambda k: auto_grid(A, eps, 41, k).re_max == pytest.approx(
            1.1 * max(radius, (1 + eps) / (1 - eps) * norm)),
        "spectra.bounding_region": lambda k: bounding_region(A, eps, k) == pytest.approx(radius),
        "spectra.extract_contours": lambda k: [
            (lv.eps, lv.kind) for lv in spectra.extract_contours(field, [eps], k).levels
        ] == [(eps, kind.name)],
        "spectra.member_radius": lambda k: spectra.member_radius(field, eps, k)
        == np.abs(nodes[mask]).max(),
        "spectra.member_distances": lambda k: spectra.member_distances(A, field, eps, [far], k)[0]
        == pytest.approx(np.abs(candidates - far).min()),
        "theorems.sample_points": lambda k: np.isin(
            theorems.sample_points(A, field, eps, 8, 0, k)[:6], band).all(),
    }
    for name, check in checks.items():
        assert check(kind), name
        with pytest.raises(AttributeError):
            check(kind.name)
    found = _functions_taking_a_kind()
    assert set(found) == set(checks)
    assert {name for name, default in found.items() if default is not CONDITION} == {
        "SpectralField.quantity"}


# --- compute_field -----------------------------------------------------------------

def test_field_zero_matrix():
    grid = GridSpec(-2, 2, -2, 2, 41, 41)
    field = compute_field(np.zeros((2, 2)), grid)
    nodes = grid.nodes()
    origin = np.isclose(nodes, 0)
    assert np.all(field.ratio[~origin] == 1.0)
    assert np.all(np.isinf(field.ratio[origin]))
    assert np.allclose(field.sigma_min, np.abs(nodes))


def test_field_diag_node_value():
    grid = GridSpec(-3, 3, -3, 3, 101, 101)
    field = compute_field(DIAG, grid)
    # node exactly at 3 + 0i
    assert field.ratio[100, 50] == pytest.approx(2.0, rel=1e-12)
    assert np.all(field.sigma_min <= field.sigma_max)
    finite = np.isfinite(field.ratio)
    assert np.all(field.ratio[finite] >= 1.0)


def test_field_unitary_similarity_invariance():
    A = random_complex(4, 3)
    q, _ = np.linalg.qr(random_complex(4, 4))
    B = q @ A @ q.conj().T
    grid = GridSpec(-4, 4, -4, 4, 41, 41)
    fa = compute_field(A, grid)
    fb = compute_field(B, grid)
    scale = np.maximum(fa.sigma_max, 1e-300)
    assert np.abs(fa.sigma_min - fb.sigma_min).max() <= 1e-10 * scale.max()
    assert np.abs(fa.sigma_max - fb.sigma_max).max() <= 1e-10 * scale.max()


def test_field_thread_determinism(monkeypatch):
    A = random_complex(5, 6)
    grid = GridSpec(-3, 3, -3, 3, 51, 51)
    monkeypatch.setenv("CONDSPEC_THREADS", "1")
    f1 = compute_field(A, grid)
    monkeypatch.setenv("CONDSPEC_THREADS", "4")
    f4 = compute_field(A, grid)
    assert np.array_equal(f1.sigma_min, f4.sigma_min)
    assert np.array_equal(f1.sigma_max, f4.sigma_max)
    assert np.array_equal(f1.ratio, f4.ratio)


def test_bad_thread_env_rejected(monkeypatch):
    monkeypatch.setenv("CONDSPEC_THREADS", "zero")
    with pytest.raises(ValueError):
        compute_field(np.eye(2), GridSpec(-1, 1, -1, 1, 3, 3))
    monkeypatch.setenv("CONDSPEC_THREADS", "0")
    with pytest.raises(ValueError):
        compute_field(np.eye(2), GridSpec(-1, 1, -1, 1, 3, 3))


def test_ratio_one_everywhere_iff_scalar():
    grid = GridSpec(-2, 2, -2, 2, 31, 31)
    scalar = compute_field(np.diag([0.5 + 0.5j, 0.5 + 0.5j]), grid)
    finite = np.isfinite(scalar.ratio)
    assert np.all(scalar.ratio[finite] == 1.0)
    nonscalar = compute_field(DIAG, grid)
    finite = np.isfinite(nonscalar.ratio)
    assert np.any(nonscalar.ratio[finite] > 1.0)


# --- condition_spectral_radius ------------------------------------------------------

def test_radius_against_bisection_oracle():
    # exact boundary on the real axis solves (x+1)/(x-1) = 1/eps
    def bisect(eps, lo=1.001, hi=30.0):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if condition_number_at(DIAG, mid) >= 1.0 / eps:
                lo = mid
            else:
                hi = mid
        return lo

    for eps, nodes in ((0.5, 401), (0.2, 401)):
        grid = auto_grid(DIAG, eps, nodes)
        r = condition_spectral_radius(DIAG, eps, grid)
        assert abs(r - bisect(eps)) <= 2 * max(grid.dre, grid.dim)


def test_radius_approaches_spectrum_for_small_eps():
    grid = GridSpec.square(2.8, 401)
    radii = [condition_spectral_radius(DIAG, e, grid) for e in (0.2, 0.1, 0.05)]
    assert radii[0] >= radii[1] >= radii[2]
    assert radii[2] == pytest.approx(1.0, abs=0.15)


def test_radius_below_paper_bound():
    A = random_complex(4, 12)
    eps = 0.3
    grid = auto_grid(A, eps, 121)
    assert condition_spectral_radius(A, eps, grid) <= bounding_region(A, eps) + grid.cell_diagonal()


def test_radius_grid_too_small():
    with pytest.raises(GridTooSmallError):
        condition_spectral_radius(DIAG, 0.5, GridSpec(-1, 1, -1, 1, 21, 21))


# --- distance_to_condition_spectrum ---------------------------------------------------

def test_distance_zero_inside_and_at_eigenvalues():
    grid = auto_grid(DIAG, 0.3, 121)
    assert distance_to_condition_spectrum(DIAG, 1.0, 0.3, grid) == 0.0
    assert distance_to_condition_spectrum(DIAG, 1.05, 0.3, grid) == 0.0


def test_distance_matches_fine_grid_oracle():
    eps, z = 0.3, 5.0 + 0.0j
    grid = auto_grid(DIAG, eps, 241)
    d = distance_to_condition_spectrum(DIAG, z, eps, grid)
    fine = auto_grid(DIAG, eps, 1001)
    nodes = fine.nodes()
    d1 = np.abs(nodes - 1.0)
    d2 = np.abs(nodes + 1.0)
    ratio = np.maximum(d1, d2) / np.minimum(d1, d2)
    members = nodes[ratio >= 1.0 / eps]
    oracle = np.abs(members - z).min()
    assert abs(d - oracle) <= 2 * grid.cell_diagonal()


def test_distance_grid_too_small():
    with pytest.raises(GridTooSmallError):
        distance_to_condition_spectrum(DIAG, 5.0, 0.3, GridSpec(-1, 1, -1, 1, 11, 11))


# --- component_count ---------------------------------------------------------------

def test_components_diag_small_eps():
    field = compute_field(DIAG, auto_grid(DIAG, 0.2, 201))
    assert component_count(DIAG, field, 0.2) == 2


def test_components_identity():
    # sigma_eps(I) = {1}: grid with a node exactly at 1 reports one component
    field = compute_field(np.eye(3), GridSpec(-4, 4, -4, 4, 161, 161))
    assert component_count(np.eye(3), field, 0.3) == 1


def test_components_diag_large_eps_stay_separate():
    # The ratio equals 1 on the whole imaginary axis, so the two components
    # of diag(1,-1) never merge, for any eps < 1 (Apollonius-circle picture).
    field = compute_field(DIAG, GridSpec.square(19.5, 801))
    assert component_count(DIAG, field, 0.9) == 2


def test_components_hausdorff_convergence():
    A = random_complex(3, 20)
    field = compute_field(A, auto_grid(A, 0.3, 301))
    eig = eigenvalues(A)
    nodes = field.grid.nodes()

    def one_sided_hausdorff(eps):
        members = nodes[field.member_mask(eps)]
        if members.size == 0:
            return 0.0
        return float(np.abs(members[:, None] - eig[None, :]).min(axis=1).max())

    h = [one_sided_hausdorff(e) for e in (0.3, 0.1, 0.03)]
    assert h[0] >= h[1] >= h[2]


def test_component_without_eigenvalue_is_named_in_raster_order():
    # A blob at 0, between the eigenvalue components of diag(1, -1), is
    # component 2 of 3 when numbered in raster order (re index outer).
    grid = GridSpec.square(2.0, 41)
    ratio = np.ones((41, 41))
    ratio[[10, 30], 20] = np.inf
    ratio[19:22, 19:22] = np.inf
    field = SpectralField(grid, np.ones_like(ratio), np.ones_like(ratio), ratio)
    with pytest.raises(GridResolutionError, match=r"^component 2 of 3 contains no eigenvalue"):
        component_count(DIAG, field, 0.2)


# --- the component labeler, against scipy.ndimage.label ------------------------------

def assert_labels_match_ndimage(mask):
    ndimage = pytest.importorskip("scipy.ndimage")
    expected, expected_count = ndimage.label(mask)
    labels, count = spectra._label(mask)
    assert count == expected_count
    assert labels.dtype == expected.dtype and np.array_equal(labels, expected)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=29)))
def test_labeler_matches_ndimage(mask):
    assert_labels_match_ndimage(mask)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.floats(0.3, 0.7), st.integers(0, 2**32 - 1))
def test_labeler_matches_ndimage_on_dense_masks(nx, ny, density, seed):
    # Half-full masks join and split many runs between rows.
    assert_labels_match_ndimage(np.random.default_rng(seed).random((nx, ny)) < density)


def _rings(n):
    i = np.abs(np.arange(n) - n // 2)
    return np.maximum(i[:, None], i[None, :]) % 3 == 0


def _spiral(n):
    """One square spiral, one node wide, with one-node gaps: ring k is
    opened below its top-left corner and led into ring k + 2."""
    mask = np.zeros((n, n), bool)
    for k in range(0, n // 2, 2):
        lo, hi = k, n - 1 - k
        mask[lo, lo:hi + 1] = mask[hi, lo:hi + 1] = True
        mask[lo:hi + 1, lo] = mask[lo:hi + 1, hi] = True
        if hi - lo > 4:
            mask[lo + 1, lo] = False
            mask[lo + 2, lo + 1] = True
    return mask


@pytest.mark.parametrize("mask", [
    np.ones((1, 9), bool), np.ones((9, 1), bool), np.array([[1, 0, 1, 1, 0, 1]], bool),
    np.array([[1, 0, 1, 1, 0, 1]], bool).T, np.zeros((7, 5), bool), np.ones((6, 8), bool),
    np.indices((161, 161)).sum(axis=0) % 2 == 0, _rings(41), _spiral(41), ~_spiral(40),
], ids=["row", "column", "row-runs", "column-runs", "all-false", "all-true", "checkerboard-161",
        "nested-rings", "spiral", "spiral-complement"])
def test_labeler_matches_ndimage_on_fixed_masks(mask):
    assert_labels_match_ndimage(mask)


# --- CSV serialization ----------------------------------------------------------------

def test_field_csv_round_trip():
    A = random_complex(3, 30)
    field = compute_field(A, GridSpec(-2, 2, -1, 1, 11, 7))
    buf = io.StringIO()
    write_field_csv(field, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "re,im,sigma_min,sigma_max,ratio"
    assert len(text.splitlines()) == 1 + 11 * 7
    back = read_field_csv(io.StringIO(text))
    assert back.grid == field.grid
    assert np.array_equal(back.sigma_min, field.sigma_min)
    assert np.array_equal(back.sigma_max, field.sigma_max)
    assert np.array_equal(back.ratio, field.ratio)


def _assert_read_only(*arrays):
    for a in arrays:
        assert not a.flags.writeable and a.size
        with pytest.raises(ValueError):
            a.flat[0] = 0


def test_field_csv_read_arrays_are_read_only():
    buf = io.StringIO()
    write_field_csv(compute_field(DIAG, GridSpec(-2, 2, -1, 1, 5, 3)), buf)
    back = read_field_csv(io.StringIO(buf.getvalue()))
    _assert_read_only(back.sigma_min, back.sigma_max, back.ratio)


def test_grid_axes_and_nodes_cached_read_only():
    grid = GridSpec(-2, 2, -1, 1, 5, 3)
    assert grid.nodes() is grid.nodes() and grid.re_axis() is grid.re_axis()
    assert np.array_equal(grid.re_axis(), np.linspace(-2, 2, 5))
    expected = np.linspace(-2, 2, 5)[:, None] + 1j * np.linspace(-1, 1, 3)[None, :]
    assert grid.nodes().tobytes() == expected.tobytes()
    _assert_read_only(grid.re_axis(), grid.im_axis(), grid.nodes())
    assert grid == GridSpec(-2, 2, -1, 1, 5, 3)  # the cache is not part of the value


@pytest.mark.parametrize("kind", [CONDITION, PSEUDO], ids=["condition", "pseudo"])
def test_member_sets_cached_per_eps_and_kind(kind):
    field = compute_field(random_complex(3, 4), GridSpec(-4, 4, -4, 4, 41, 41))
    for eps in (0.2, 0.5):
        mask = field.member_mask(eps, kind)
        assert mask is field.member_mask(eps, kind)
        q = field.sigma_min if kind is PSEUDO else field.ratio
        fresh = q <= eps if kind is PSEUDO else q >= 1.0 / eps
        assert np.array_equal(mask, fresh)
        nodes = field.member_nodes(eps, kind)
        assert nodes is field.member_nodes(eps, kind)
        assert nodes.tobytes() == field.grid.nodes()[fresh].tobytes()
        _assert_read_only(mask, nodes)
    assert not np.array_equal(field.member_mask(0.2, kind), field.member_mask(0.5, kind))


def test_field_csv_writes_infinities():
    field = compute_field(DIAG, GridSpec(-2, 2, -2, 2, 5, 5))
    buf = io.StringIO()
    write_field_csv(field, buf)
    assert "inf" in buf.getvalue()  # eigenvalue nodes at +-1 are on this grid
    back = read_field_csv(io.StringIO(buf.getvalue()))
    assert np.isinf(back.ratio).sum() == 2


def per_node_field_csv(field) -> str:
    """The field CSV as the per-node writer formatted it, one `%` per node:
    the byte oracle for write_field_csv."""
    out = ["re,im,sigma_min,sigma_max,ratio\n"]
    re = field.grid.re_axis()
    im = field.grid.im_axis()
    for i in range(field.grid.nx):
        for j in range(field.grid.ny):
            out.append("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                re[i], im[j], field.sigma_min[i, j], field.sigma_max[i, j],
                field.ratio[i, j]))
    return "".join(out)


def field_csv(field) -> str:
    buf = io.StringIO()
    write_field_csv(field, buf)
    return buf.getvalue()


# Node values from every range the writer formats: zeros, subnormals, values
# near the float64 limit and the +inf ratio of an eigenvalue node.
node_values = st.one_of(
    st.floats(0.0, 1e3),
    st.floats(0.0, 2.3e-308),
    st.floats(1e299, 1.7976931348623157e308),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e300, np.inf]),
)
# Axis ends; a -0.0 end puts -0.0 on the axis.
axis_ends = st.sampled_from([(-2.0, -0.0), (-0.0, 1.5), (-1.0, 1.0), (-1e300, 1e300),
                             (1e-310, 3e-310), (-3.0, 7.25)])


@st.composite
def fields(draw):
    nx, ny = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    (re_min, re_max), (im_min, im_max) = draw(axis_ends), draw(axis_ends)
    grid = GridSpec(re_min, re_max, im_min, im_max, nx, ny)
    smin, smax, ratio = (np.array(draw(st.lists(node_values, min_size=nx * ny,
                                                max_size=nx * ny))).reshape(nx, ny)
                         for _ in range(3))
    return SpectralField(grid, smin, smax, ratio)


@settings(max_examples=150, deadline=None)
@given(fields())
def test_field_csv_bytes_match_per_node_writer(field):
    assert field_csv(field) == per_node_field_csv(field)


@pytest.mark.parametrize("grid", [GridSpec(-2.0, -0.0, -2.0, 2.0, 5, 9),
                                  GridSpec(-2.0, 2.0, -0.0, 1.0, 9, 2)])
def test_field_csv_bytes_match_per_node_writer_at_eigenvalues(grid):
    field = compute_field(DIAG, grid)  # the node -1 + 0i is an eigenvalue
    assert np.isinf(field.ratio).any()
    assert field_csv(field) == per_node_field_csv(field)


def test_field_grid_matches_full_parse_on_compute_output():
    A = random_complex(3, 31)
    text = field_csv(compute_field(A, GridSpec(-2.0, 2.0, -0.0, 1.5, 13, 6)))
    assert read_field_grid(io.StringIO(text)) == read_field_csv(io.StringIO(text)).grid


def test_field_grid_rejects_rows_in_any_other_order():
    field = compute_field(DIAG, GridSpec(-2.0, 2.0, -1.0, 1.0, 7, 5))
    header, *rows = field_csv(field).splitlines(keepends=True)
    # Reversed, the first block's im tokens descend; shuffled, the second row
    # starts a re block below the first.
    for order, message in ((rows[::-1], r"data row 2: im '0.5' is not a finite number above"),
                           (random.Random(3).sample(rows, len(rows)),
                            r"data row 2: re '-1.3333333333333335' is not a finite number above")):
        with pytest.raises(ValueError, match=message):
            read_field_grid(io.StringIO(header + "".join(order)))


def _pipe(text):
    """The read end of an os.pipe holding text (a few kB, so the pipe's buffer holds it all)."""
    r, w = os.pipe()
    with open(w, "w") as writer:
        writer.write(text)
    return open(r)


def test_field_grid_streams_a_pipe_in_one_pass():
    field = compute_field(DIAG, GridSpec(-2.0, 2.0, -1.0, 1.0, 7, 5))
    text = field_csv(field)
    with _pipe(text) as fp:
        assert read_field_grid(fp) == field.grid
    header, *rows = text.splitlines(keepends=True)
    swapped = header + "".join(rows[:8] + rows[9:10] + rows[8:9] + rows[10:])
    # Data row 9 holds the second block's fifth im where its fourth belongs.
    with _pipe(swapped) as fp, pytest.raises(ValueError, match=(
            r"data row 9: the block of re -1\.3333333333333335 holds im \['1'\] where the "
            r"first block holds \['0\.5'\]")):
        read_field_grid(fp)


def test_field_grid_leaves_value_tokens_unparsed_in_compute_order():
    text = "re,im,sigma_min,sigma_max,ratio\n" + "".join(
        f"{re},{im},x,y,z\n" for re in (0, 1, 2) for im in (-1, 1))
    assert read_field_grid(io.StringIO(text)) == GridSpec(0.0, 2.0, -1.0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        read_field_csv(io.StringIO(text))


_DUPLICATED_NODE = "re,im,sigma_min,sigma_max,ratio\n" + "".join(
    f"{re},{im},1,1,1\n" for re, im in ((0, 0), (0, 0), (1, 0), (1, 1)))


@pytest.mark.parametrize("reader", [read_field_csv, read_field_grid])
def test_field_csv_with_a_duplicated_node_is_rejected(reader):
    # Two re and two im values over four rows, but node (0, 0) is repeated
    # where (0, 1) belongs: the first block's im tokens do not ascend.
    with pytest.raises(ValueError, match=r"data row 2: im '0' is not a finite number above "
                                         r"the im before it"):
        reader(io.StringIO(_DUPLICATED_NODE))


def test_field_csv_reads_compute_order_bit_for_bit():
    field = compute_field(random_complex(3, 32), GridSpec(-2.0, 2.0, -0.0, 1.5, 9, 6))
    text = field_csv(field)
    back = read_field_csv(io.StringIO(text))
    assert back.grid == field.grid
    for name in ("sigma_min", "sigma_max", "ratio"):
        assert getattr(back, name).tobytes() == getattr(field, name).tobytes()
    header, *rows = text.splitlines(keepends=True)
    for order, message in ((rows[::-1], r"data row 2: im '1.2' is not a finite number above"),
                           (random.Random(4).sample(rows, len(rows)),
                            r"data row 2: the block of re -0.5 holds im \['0.29999999999999999'\]")):
        with pytest.raises(ValueError, match=message):
            read_field_csv(io.StringIO(header + "".join(order)))


def test_field_grid_rejects_shuffled_rows_without_parsing_values():
    # Rows 1 and 2 are two re blocks, 2 then 1: the order fault is named,
    # never the value tokens.
    rows = [f"{re},{im},x,y,z\n" for re in (0, 1, 2) for im in (-1, 1)]
    text = "re,im,sigma_min,sigma_max,ratio\n" + "".join(random.Random(5).sample(rows, 6))
    with pytest.raises(ValueError, match=r"data row 2: re '1' is not a finite number above "
                                         r"the re before it"):
        read_field_grid(io.StringIO(text))


def test_field_grid_never_reads_the_values(monkeypatch):
    def no_full_parse(fp):
        raise AssertionError("read_field_grid called read_field_csv")

    monkeypatch.setattr(spectra, "read_field_csv", no_full_parse)
    field = compute_field(DIAG, GridSpec(-2.0, 2.0, -1.0, 1.0, 5, 4))
    assert read_field_grid(io.StringIO(field_csv(field))) == field.grid


_ROWS_3x2 = [f"{re},{im},1,1,1\n" for re in (0, 1, 2) for im in (-1, 1)]


def _swap(rows, i, j):
    rows = list(rows)
    rows[i], rows[j] = rows[j], rows[i]
    return rows


# Each file breaks the rule first at the named data row, read in file
# order; the message names that row by its place in the file (one past the
# last when the file ends early).
@pytest.mark.parametrize("rows, message", [
    (_ROWS_3x2[:3] + _ROWS_3x2[4:], r"data row 4: the block of re 1 holds im \[\] where "
                                    r"the first block holds \['1'\]"),
    (_ROWS_3x2[:5], r"data row 6: the block of re 2 holds im \[\] where the first block "
                    r"holds \['1'\]"),
    # The first block defines the im axis, so the next block's first row is named.
    (_ROWS_3x2[1:], r"data row 2: the block of re 1 holds im \['-1'\] where the first "
                    r"block holds \['1'\]"),
    # Reversed, the first block's im tokens descend.
    (_ROWS_3x2[::-1][:5], r"data row 2: im '-1' is not a finite number above the im before it"),
    (_ROWS_3x2[:3] + ["1,1,1,1\n"] + _ROWS_3x2[4:],
     r"data row 4: the block of re 1 holds im \['<4 fields>'\] where the first block holds"),
    (_ROWS_3x2[:2] + ["\n"] + _ROWS_3x2[2:], r"data row 3: re '\\n' is not a finite number"),
    # Re blocks 2 then 0, each of one row: row 2 is out of order before the
    # comment line is reached.
    (_swap(_ROWS_3x2[:2] + ["# note\n"] + _ROWS_3x2[2:], 0, 6),
     r"data row 2: re '0' is not a finite number above the re before it"),
    (_ROWS_3x2[:4] + ["x,-1,1,1,1\n"] + _ROWS_3x2[5:], r"data row 5: re 'x' is not a finite"),
    # The first block is row 1 alone, so row 2 starts a block of another im.
    (_swap(_ROWS_3x2[:1] + ["0,nan,1,1,1\n"] + _ROWS_3x2[2:], 1, 5),
     r"data row 2: the block of re 2 holds im \['1'\] where the first block holds \['-1'\]"),
    (_ROWS_3x2[:2] + ["1.0,-1,1,1,1\n"] + _ROWS_3x2[3:],
     r"data row 4: the block of re 1.0 holds im \[\] where the first block holds \['1'\]"),
    # Every block holds the first block's im tokens; the re axis 0, 1, 1.0 does not ascend.
    ([r.replace("2,", "1.0,", 1) if r.startswith("2,") else r for r in _ROWS_3x2],
     r"data row 5: re '1.0' is not a finite number above the re before it"),
    # The re blocks run 0, 0.0, 1: the re at data row 3 is the first fault,
    # before the short block after it.
    (["0,-1,1,1,1\n", "0,1,1,1,1\n", "0.0,-1,1,1,1\n", "0.0,1,1,1,1\n", "1,-1,1,1,1\n"],
     r"data row 3: re '0.0' is not a finite number above the re before it"),
    (["0,0,1,1,1\n", "1,0,1,1,1\n"], r"grid rectangle must have positive extent"),
], ids=["dropped-row", "dropped-last-row", "dropped-first-block-row",
        "reversed-dropped-first-block-row", "4-fields",
        "blank-line", "comment-line-shuffled", "non-numeric-re", "nan-im-shuffled",
        "two-spellings-in-a-block", "two-spellings-of-a-value", "re-fault-before-a-short-block",
        "one-im-value"])
@pytest.mark.parametrize("reader", [read_field_csv, read_field_grid])
def test_field_csv_rule_names_the_first_offending_row(reader, rows, message):
    with pytest.raises(ValueError, match=message):
        reader(io.StringIO("re,im,sigma_min,sigma_max,ratio\n" + "".join(rows)))


def _grid_and_peak(path):
    """read_field_grid's result (or ValueError) and its traced peak bytes."""
    with open(path) as fp:
        tracemalloc.start()
        try:
            try:
                grid = read_field_grid(fp)
            except ValueError as exc:
                grid = exc
            return grid, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_field_grid_keeps_only_the_axes_in_memory(tmp_path):
    n = 301
    values = np.linspace(1.0, 2.0, n * n).reshape(n, n)
    path = tmp_path / "field.csv"
    with open(path, "w") as fp:
        write_field_csv(SpectralField(GridSpec.square(1.0, n), values, values, values), fp)
    assert path.stat().st_size > 8_000_000
    grid, peak = _grid_and_peak(path)
    assert grid == GridSpec.square(1.0, n)
    assert peak < 1_000_000
    # Reversed, the file is rejected after its first re block, never held whole.
    header, *rows = path.read_text().splitlines(keepends=True)
    reversed_path = tmp_path / "reversed.csv"
    reversed_path.write_text(header + "".join(rows[::-1]))
    error, peak = _grid_and_peak(reversed_path)
    assert isinstance(error, ValueError) and str(error).startswith("field CSV data row 2: im ")
    assert peak < 1_000_000


# --- mirror-exact im axis and the half field ---------------------------------

@settings(max_examples=200, deadline=None)
@given(st.floats(1e-300, 1e300), st.integers(2, 600))
def test_mirrored_im_axis_is_mirror_exact(radius, ny):
    grid = GridSpec(-1.0, 2.0, -radius, radius, 2, ny)
    im = grid.im_axis()
    assert grid.mirrored and len(im) == ny
    assert np.array_equal(im[::-1], -im)
    nonzero = im != 0.0  # +0.0 negates to -0.0
    assert im[::-1][nonzero].tobytes() == (-im)[nonzero].tobytes()
    assert (np.diff(im) > 0.0).all()
    assert im[0] == -radius and im[-1] == radius
    if ny % 2:
        center = im[ny // 2]
        assert center == 0.0 and not np.signbit(center)
    else:
        assert not (im == 0.0).any()
    assert np.abs(im - np.linspace(-radius, radius, ny)).max() <= 4 * np.spacing(radius)


@pytest.mark.parametrize("im_min, im_max", [(-1.0, 1.5), (-0.0, 1.0), (-2.0, -0.5), (-2.7, 2.7000000000000006)])
def test_unmirrored_im_axis_is_linspace(im_min, im_max):
    grid = GridSpec(-1.0, 1.0, im_min, im_max, 2, 161)
    assert not grid.mirrored
    assert grid.im_axis().tobytes() == np.linspace(im_min, im_max, 161).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(2, 80))
def test_field_grid_rebuilds_mirrored_axis_bits(radius, n):
    grid = GridSpec.square(radius, n)
    zeros = np.zeros((n, n))
    text = field_csv(SpectralField(grid, zeros, zeros, zeros))
    back = read_field_grid(io.StringIO(text))
    assert back == grid
    assert back.im_axis().tobytes() == grid.im_axis().tobytes()
    assert read_field_csv(io.StringIO(text)).grid.im_axis().tobytes() == grid.im_axis().tobytes()


def _signed_zero_imag(a):
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = a, -0.0
    return out


@pytest.mark.parametrize("A, grid, columns", [
    (DIAG, GridSpec.square(2.0, 7), 4),                             # real: im >= 0 only
    (DIAG, GridSpec.square(2.0, 8), 4),
    (_signed_zero_imag(DIAG), GridSpec.square(2.0, 9), 5),
    (DIAG, GridSpec(-2.0, 2.0, -1.0, 1.5, 5, 7), 7),                # not mirrored: every node
    (DIAG + 1e-300j, GridSpec.square(2.0, 7), 7),                   # complex: every node
    (random_complex(3, 9), GridSpec.square(2.0, 8), 8),
])
def test_half_field_only_for_real_matrix_on_mirrored_grid(monkeypatch, A, grid, columns):
    calls = []
    inner = spectra.shifted_extremes

    def recording(m, zs):
        calls.append(np.array(zs))
        return inner(m, zs)

    monkeypatch.setattr(spectra, "shifted_extremes", recording)
    field = compute_field(A, grid)
    assert len(calls) == 1
    assert calls[0].tobytes() == grid.nodes()[:, grid.ny - columns:].tobytes()
    smin, smax = inner(A, grid.nodes())
    assert field.sigma_min.tobytes() == smin.tobytes()
    assert field.sigma_max.tobytes() == smax.tobytes()
    _assert_read_only(field.sigma_min, field.sigma_max, field.ratio)


@pytest.mark.parametrize("kind", [CONDITION, PSEUDO], ids=["condition", "pseudo"])
def test_band_nodes_cached_per_eps_and_kind(kind):
    field = compute_field(random_complex(3, 4), GridSpec(-4, 4, -4, 4, 41, 41))
    for eps in (0.2, 0.5):
        band = field.band_nodes(eps, kind)
        assert band is field.band_nodes(eps, kind)
        q = field.sigma_min if kind is PSEUDO else field.ratio
        lo, hi = (0.5 * eps, 2.0 * eps) if kind is PSEUDO else (0.5 / eps, 2.0 / eps)
        assert band.size and band.tobytes() == field.grid.nodes()[(q >= lo) & (q <= hi)].tobytes()
        _assert_read_only(band)
