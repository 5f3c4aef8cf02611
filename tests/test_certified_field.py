"""The field verify reads: membership and band queries decided from
certified node bounds give the fully evaluated field's answers, bit for
bit, while evaluating only the nodes the bounds cannot decide."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from condspec import spectra
from condspec.matrixio import generate
from condspec.numkernel import ComplexMatrix
from condspec.spectra import (
    CONDITION,
    LATTICE_STEP,
    PSEUDO,
    GridSpec,
    SpectralField,
    auto_grid,
    compute_field,
    field_for,
)

KINDS = (CONDITION, PSEUDO)


def assert_same_answers(certified, full, eps_list, kinds=KINDS):
    for e in eps_list:
        for kind in kinds:
            assert certified.member_mask(e, kind).tobytes() == full.member_mask(e, kind).tobytes()
            assert certified.band_nodes(e, kind).tobytes() == full.band_nodes(e, kind).tobytes()


# Entries from the subnormal range to 1e+-150, each with its own exponent;
# a real matrix also takes the mirror rule on a mirrored grid.
mantissas = st.floats(-1.0, 1.0, allow_nan=False)
exponents = st.integers(-320, 150)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    parts = 1 if draw(st.booleans()) else 2
    values = [draw(mantissas) * 10.0 ** draw(exponents) for _ in range(parts * n * n)]
    a = np.array(values[:n * n]).reshape(n, n)
    return a if parts == 1 else a + 1j * np.array(values[n * n:]).reshape(n, n)


@st.composite
def grids(draw, A):
    """An auto grid (mirrored), or a rectangle somewhere near A's spectrum."""
    nodes = (draw(st.integers(2, 41)), draw(st.integers(2, 41)))
    if draw(st.booleans()):
        return auto_grid(A, draw(st.floats(0.01, 0.9)), nodes[0], PSEUDO)
    scale = max(float(np.abs(A).max()), 1e-300)
    lo = [draw(st.floats(-2.0, 1.0)) * scale for _ in range(2)]
    width = [draw(st.floats(0.01, 3.0)) * scale for _ in range(2)]
    grid_args = (lo[0], lo[0] + width[0], lo[1], lo[1] + width[1])
    assume(all(np.isfinite(grid_args)) and lo[0] + width[0] > lo[0] and lo[1] + width[1] > lo[1])
    return GridSpec(*grid_args, *nodes)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certified_answers_equal_the_evaluated_fields(data):
    A = data.draw(matrices())
    grid = data.draw(grids(A))
    # Condition levels spread from 1 to 1e12; pseudospectrum levels span A's scale.
    scale = max(float(np.abs(A).max()), 5e-324)
    eps_list = data.draw(st.lists(st.one_of(
        st.floats(1e-12, 0.999),
        st.floats(1e-3, 10.0).map(lambda f: f * scale),
        st.floats(-320.0, 160.0).map(lambda k: 10.0 ** k)), min_size=1, max_size=3))
    full = compute_field(A, grid)
    certified = SpectralField.of(A, grid)
    for e in eps_list:
        kinds = [k for k in KINDS if e < k.eps_limit and e > 0.0]
        assert_same_answers(certified, full, [e], kinds)
    assert certified.nodes_evaluated <= full.nodes_evaluated


def _eps_at_level(ratio, scale):
    """An eps whose condition level scale/eps is exactly ratio, or None:
    not every double is a reciprocal of one."""
    e = scale / ratio
    for _ in range(4):
        if scale / e == ratio:
            return e
        e = np.nextafter(e, 0.0 if scale / e < ratio else 1.0)
    return None


@pytest.mark.parametrize("on_lattice", [True, False], ids=["lattice-node", "undecided-node"])
@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0], ids=["2L", "L", "L/2"])
def test_level_exactly_at_a_nodes_value(on_lattice, scale):
    # A node's computed value equal to 0.5L, L or 2L: a lattice node is
    # evaluated first, another is decided only once its bounds are found
    # to hold the level.  The node is the first one, in grid order, whose
    # ratio is scale/eps for some eps.
    A = generate("random", 4, seed=7).entries
    grid = auto_grid(A, 0.4, 41)
    full = compute_field(A, grid)
    lattice = np.arange(grid.nx) % LATTICE_STEP == 0
    candidates = [(i, j) for i in range(8, 33) for j in range(8, 33)
                  if lattice[i] == lattice[j] == on_lattice]
    node, cond_eps = next((node, e) for node in candidates
                          if 2.0 < full.ratio[node] < np.inf
                          and (e := _eps_at_level(float(full.ratio[node]), scale)) is not None)
    assert CONDITION.level(cond_eps, scale) == full.ratio[node]
    pseudo_eps = float(full.sigma_min[node]) * scale
    assert PSEUDO.level(pseudo_eps, 1.0 / scale) == full.sigma_min[node]
    assert_same_answers(SpectralField.of(A, grid), full, [pseudo_eps], [PSEUDO])
    assert_same_answers(SpectralField.of(A, grid), full, [cond_eps], [CONDITION])
    # eps = 1/kappa itself, whose level 1/eps is kappa give or take an ulp.
    assert_same_answers(SpectralField.of(A, grid), full, [1.0 / float(full.ratio[node])], [CONDITION])


def test_band_edges_of_a_real_matrix_on_its_mirror_nodes():
    # The level at the value of a node below the real axis, whose value
    # is its mirror node's: the mirror rule lives in the one evaluator.
    A = generate("jordan", 3, value=0.5).entries
    grid = auto_grid(A, 0.3, 33)
    full = compute_field(A, grid)
    for eps in (float(full.sigma_min[9, 3]), 2.0 * float(full.sigma_min[10, 2])):
        assert_same_answers(SpectralField.of(A, grid), full, [eps], [PSEUDO])


def test_nodes_evaluated_counts_each_node_once():
    A, Z = generate("random", 3, seed=4).entries, generate("jordan", 4, value=0.9).entries
    grid = GridSpec.square(3.0, 41)
    assert compute_field(A, grid).nodes_evaluated == 41 * 41
    assert compute_field(Z, grid).nodes_evaluated == 41 * 21  # real: the upper half
    for M, full_count in ((A, 41 * 41), (Z, 41 * 21)):
        field = SpectralField.of(M, grid)
        assert field.nodes_evaluated == 0
        field.member_mask(0.2)
        field.band_nodes(0.3, PSEUDO)
        partial = field.nodes_evaluated
        assert 0 < partial < full_count / 2
        assert field.member_mask(0.2) is field.member_mask(0.2)
        assert field.nodes_evaluated == partial  # an answered query evaluates nothing
        assert field.sigma_min.tobytes() == compute_field(M, grid).sigma_min.tobytes()
        assert field.nodes_evaluated == full_count  # the rest, each node once
    given = SpectralField(grid, np.ones((41, 41)), np.ones((41, 41)), np.ones((41, 41)))
    assert given.nodes_evaluated == 0 and not given.member_mask(0.5).any()


def test_reading_values_evaluates_the_rest_in_one_call(monkeypatch):
    calls = []
    inner = spectra.shifted_extremes

    def recording(m, zs):
        calls.append(np.size(zs))
        return inner(m, zs)

    monkeypatch.setattr(spectra, "shifted_extremes", recording)
    A = generate("random", 3, seed=9).entries
    field = SpectralField.of(A, GridSpec.square(3.0, 41))
    field.member_mask(0.2)
    assert len(calls) == 2  # the lattice, then the nodes its bounds leave open
    assert calls[0] == 11 * 11
    field.member_mask(0.2, PSEUDO)
    assert len(calls) == 3
    ratio = field.ratio
    assert len(calls) == 4 and sum(calls) == 41 * 41
    for values in (field.sigma_min, field.sigma_max, field.quantity(PSEUDO), ratio):
        assert not values.flags.writeable
    assert len(calls) == 4


def test_field_for_certifies_and_holds_no_matrix():
    m = ComplexMatrix(generate("random", 5, seed=3).entries)
    grid = auto_grid(m, 0.4, 161)
    field = field_for(m, grid, 0.4)
    assert field._matrix is not m and field._matrix.entries.tobytes() == m.entries.tobytes()
    assert_same_answers(field, compute_field(m, grid), [0.05, 0.2, 0.4])
    assert field.nodes_evaluated < 0.2 * 161 * 161
    # Kept among m's facts, the field does not keep m alive.
    held = weakref.ref(m)
    del m
    assert held() is None and field.member_mask(0.2).any()


def test_a_field_wraps_its_matrix_once(monkeypatch):
    wraps = []
    inner = ComplexMatrix.__post_init__

    def counting(self):
        wraps.append(self)
        inner(self)

    A = generate("random", 4, seed=5).entries
    grid = auto_grid(A, 0.4, 41)
    monkeypatch.setattr(ComplexMatrix, "__post_init__", counting)
    field = SpectralField.of(A, grid)
    assert len(wraps) == 1
    for e in (0.05, 0.2):
        field.member_mask(e)
        field.band_nodes(e, PSEUDO)
    field.ratio
    assert len(wraps) == 1 and field.nodes_evaluated > 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_values_past_float64_leave_every_node_open():
    # sigma_max overflows on the lattice: no bound decides a node, so
    # every node is evaluated and the answers are still the full field's.
    A = np.full((3, 3), 1.5e308)
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
    full = compute_field(A, grid)
    assert np.isinf(full.sigma_max).any()
    certified = SpectralField.of(A, grid)
    assert_same_answers(certified, full, [0.2], [CONDITION])
    assert_same_answers(certified, full, [1e300], [PSEUDO])


@pytest.mark.parametrize("grid", [GridSpec(0.5, 2.5, -1.0, 1.0, 9, 9),
                                  GridSpec(-3.0, 0.25, -0.75, 2.0, 13, 9)])
def test_levels_at_every_node_where_the_bound_is_attained(grid):
    # For A = 0, sigma_min(z*I - A) = |z| grows at slope exactly 1 along each
    # ray from 0, so a node's value reaches its corner's value plus their
    # distance, and only the rounding margin keeps the node undecided when
    # a level sits at its value.
    A = np.zeros((2, 2))
    full = compute_field(A, grid)
    values = sorted(set(full.sigma_min.ravel().tolist()) - {0.0})
    for v in values:
        assert_same_answers(SpectralField.of(A, grid), full, [0.5 * v, v, 2.0 * v], [PSEUDO])


def reference_bounds(field):
    """SpectralField._bounds as first written: every corner's gathers and
    distances stacked, then reduced with np.max and np.min."""
    grid = field.grid
    (lx, ax, bx), (ly, ay, by) = spectra._lattice_cells(grid.nx), spectra._lattice_cells(grid.ny)
    on_lattice = np.zeros((grid.nx, grid.ny), bool)
    on_lattice[np.ix_(lx, ly)] = True
    smin, smax = field._evaluate(on_lattice)[:2]
    re, im = grid.re_axis(), grid.im_axis()
    corners = [(np.ix_(i, j), np.hypot((re - re[i])[:, None], (im - im[j])[None, :]))
               for i in (ax, bx) for j in (ay, by)]
    with np.errstate(invalid="ignore", over="ignore"):
        cell = np.hypot((re[bx] - re[ax])[:, None], (im[by] - im[ay])[None, :])
        margin = spectra.node_rounding(np.max([smax[c] for c, _ in corners], 0) + cell)
        lo_min, lo_max = (np.fmax(np.max([v[c] - d for c, d in corners], 0) - margin, 0.0)
                          for v in (smin, smax))
        hi_min, hi_max = (np.fmin(np.min([v[c] + d for c, d in corners], 0) + margin, np.inf)
                          for v in (smin, smax))
        threshold, divide = spectra.singularity_threshold, spectra._quiet_divide
        n = field._matrix.n
        return ((lo_min, np.where(hi_min <= threshold(n, lo_max), np.inf, divide(lo_max, hi_min))),
                (hi_min, np.where(lo_min <= threshold(n, hi_max), np.inf, divide(hi_max, lo_min))))


def assert_reference_bounds(A, grid):
    field = SpectralField.of(A, grid)
    got = field._bounds()
    want = reference_bounds(field)
    for g, w in zip(got, want):
        assert [a.tobytes() for a in g] == [a.tobytes() for a in w]
    return got


@st.composite
def bound_grids(draw, A):
    """A rectangle near A's spectrum, mirrored about the real axis or not,
    with nx != ny."""
    nx = draw(st.integers(2, 41))
    ny = draw(st.integers(2, 40))
    ny += ny >= nx
    scale = max(float(np.abs(A).max()), 1e-300)
    re_lo, im_lo = (draw(st.floats(-2.0, 1.0)) * scale for _ in range(2))
    re_hi, im_hi = (lo + draw(st.floats(0.01, 3.0)) * scale for lo in (re_lo, im_lo))
    if draw(st.booleans()):
        im_lo, im_hi = -abs(im_hi), abs(im_hi)
    assume(np.isfinite([re_lo, re_hi, im_lo, im_hi]).all() and re_lo < re_hi and im_lo < im_hi)
    return GridSpec(re_lo, re_hi, im_lo, im_hi, nx, ny)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bounds_equal_the_stacked_corner_formula(data):
    A = data.draw(matrices())
    assert_reference_bounds(A, data.draw(bound_grids(A)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("grid", [GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 13),
                                  GridSpec(-1.0, 2.0, 0.5, 3.0, 14, 6)])
def test_bounds_past_float64_hold_every_level_as_before(grid):
    # sigma_max overflows to inf on the lattice, so the margin is inf and
    # inf - inf is nan until fmax and fmin clamp the bounds to [0, inf].
    A = np.full((3, 3), 1.5e308)
    (lo_min, lo_ratio), (hi_min, hi_ratio) = assert_reference_bounds(A, grid)
    for low, high in ((lo_min, hi_min), (lo_ratio, hi_ratio)):
        assert not low.any() and np.isposinf(high).all()


# _bounds' tracemalloc peak on a 161 x 161 field, in full-grid float64
# arrays, the lattice evaluated beforehand.  Measured: 18.2 arrays
# (3,772,137 bytes) when the four corners were stacked for np.max and np.min,
# 9.4 (1,953,955 bytes) with running bounds: 5 running arrays, then one
# corner's distances, gather and difference at a time.
BOUNDS_PEAK_ARRAYS = 12


def test_bounds_peak_memory_on_a_corpus_field():
    A = generate("random", 6, seed=11).entries
    field = SpectralField.of(A, auto_grid(A, 0.4, 161, PSEUDO))
    lattice = spectra._lattice_cells(161)[0]
    on_lattice = np.zeros((161, 161), bool)
    on_lattice[np.ix_(lattice, lattice)] = True
    field._evaluate(on_lattice)
    tracemalloc.start()
    try:
        field._bounds()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BOUNDS_PEAK_ARRAYS * 161 * 161 * 8
