"""Hull, polygon and disk distances and numerical range against references.

The references are the plain per-point / per-edge / per-angle loops the
vectorized kernels replaced, and the points x disks broadcasts that T3's
eigenvalue reach and T8's disk cover used before `distance_to_disks` took a
running minimum; every comparison is bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condspec import spectra, theorems
from condspec.errors import GridResolutionError
from condspec.geometry import convex_hull, distance_to_disks, distance_to_polygon, hull_depths
from condspec.matrixio import generate
from condspec.numkernel import _lapack, as_matrix, spectral_norm
from condspec.spectra import (
    CONDITION,
    KIND_CONDITION,
    KIND_PSEUDO,
    PSEUDO,
    GridSpec,
    component_count,
    compute_field,
    field_for,
)
from condspec.theorems import (
    check_t8,
    check_t8e,
    check_t9,
    check_t9e,
    numerical_range_boundary,
)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_hull(points):
    """Andrew monotone chain over every distinct point."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    hull = np.array(half(pts)[:-1] + half(pts[::-1])[:-1])
    return pts[:1] if len(hull) < 2 else hull


def sorted_hull(points):
    """convex_hull as it was before the row pass came first: every
    distinct point, sorted, then the two ends of each row of equal y."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    by_row = np.lexsort((pts[:, 0], pts[:, 1]))
    y = pts[by_row, 1]
    row_end = np.append(y[1:] != y[:-1], True)
    row_start = np.insert(row_end[:-1], 0, True)
    keep = np.zeros(len(pts), dtype=bool)
    keep[by_row[row_start | row_end]] = True
    pts = pts[keep]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    hull = np.array(half(pts)[:-1] + half(pts[::-1])[:-1])
    return pts[:1] if len(hull) < 2 else hull


def _segment_distances(points, a, b):
    d = b - a
    L2 = float(d @ d)
    if L2 == 0.0:
        return np.hypot(points[:, 0] - a[0], points[:, 1] - a[1])
    t = np.clip(((points - a) @ d) / L2, 0.0, 1.0)
    proj = a + t[:, None] * d
    return np.hypot(points[:, 0] - proj[:, 0], points[:, 1] - proj[:, 1])


def _signed_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def reference_distance(points, poly):
    """One segment-distance pass and one half-plane test per edge."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    poly = np.asarray(poly, dtype=np.float64).reshape(-1, 2)
    if len(poly) == 1:
        return np.hypot(pts[:, 0] - poly[0, 0], pts[:, 1] - poly[0, 1])
    edges = [(poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))]
    if len(poly) == 2:
        edges = edges[:1]
    dmin = np.min(np.stack([_segment_distances(pts, a, b) for a, b in edges]), axis=0)
    if len(poly) >= 3 and abs(_signed_area(poly)) > 0.0:
        ccw = poly if _signed_area(poly) > 0 else poly[::-1]
        inside = np.ones(len(pts), dtype=bool)
        for i in range(len(ccw)):
            a, b = ccw[i], ccw[(i + 1) % len(ccw)]
            cr = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            inside &= cr >= 0.0
        dmin = np.where(inside, 0.0, dmin)
    return dmin


@_lapack("Hermitian eigensolve failed")
def reference_range(A, n_angles):
    """One Hermitian eigensolve per support angle, under the BLAS pin that
    numerical_range_boundary runs under (unpinned, n = 65 rounds otherwise)."""
    m = as_matrix(A)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    points = np.empty(n_angles, dtype=np.complex128)
    for i, th in enumerate(thetas):
        rotated = np.exp(1j * th) * m.entries
        _, vecs = np.linalg.eigh(0.5 * (rotated + rotated.conj().T))
        v = vecs[:, -1]
        points[i] = v.conj() @ m.entries @ v
    return points


def reference_nearest(points, eigenvalues):
    """T3's distance to the nearest eigenvalue: one eigenvalues x points array."""
    return np.abs(points - eigenvalues[:, None]).min(axis=0)


def reference_disk_excess(members, centers, radii):
    """T8's excess over the nearest disk edge: one members x disks array."""
    return (np.abs(members[:, None] - centers[None, :]) - radii[None, :]).min(axis=1)


@st.composite
def grid_subsets(draw):
    nx, ny = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    x0, y0 = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
    sx, sy = draw(st.floats(1e-3, 5)), draw(st.floats(1e-3, 5))
    X, Y = np.meshgrid(np.linspace(x0, x0 + sx, nx), np.linspace(y0, y0 + sy, ny))
    grid = np.column_stack([X.ravel(), Y.ravel()])
    keep = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    return grid[np.array(keep)] if any(keep) else grid[:1]


finite = st.floats(-1e6, 1e6, allow_nan=False)
float_points = st.lists(st.tuples(finite, finite), min_size=1, max_size=60).map(np.array)


@settings(max_examples=200, deadline=None)
@given(grid_subsets())
def test_hull_matches_reference_on_grid_subsets(pts):
    assert np.array_equal(convex_hull(pts), reference_hull(pts))


@settings(max_examples=200, deadline=None)
@given(float_points)
def test_hull_matches_reference_on_float_points(pts):
    assert np.array_equal(convex_hull(pts), reference_hull(pts))


def _with_duplicates(draw, pts):
    picks = draw(st.lists(st.integers(0, len(pts) - 1), max_size=len(pts)))
    return np.concatenate([pts, pts[picks]]) if picks else pts


@st.composite
def hull_inputs(draw):
    """Grid subsets, a single row, collinear points and a few values with
    both signed zeros, each with repeated points."""
    shape = draw(st.sampled_from(["grid", "row", "collinear", "zeros"]))
    if shape == "grid":
        pts = draw(grid_subsets())
    elif shape == "row":
        xs = draw(st.lists(finite, min_size=1, max_size=30))
        pts = np.column_stack([xs, np.full(len(xs), draw(finite))])
    elif shape == "collinear":
        p0 = np.array(draw(st.tuples(finite, finite)))
        d = np.array(draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))), dtype=float)
        ts = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=30))
        pts = p0 + np.outer(ts, d) * 0.5
    else:
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
        pts = np.array(draw(st.lists(st.tuples(values, values), min_size=1, max_size=40)))
    pts = _with_duplicates(draw, pts)
    return pts[draw(st.permutations(range(len(pts))))]


@settings(max_examples=200, deadline=None)
@given(hull_inputs())
def test_hull_matches_sorted_hull(pts):
    # Same vertices in the same order.  Where -0.0 and 0.0 meet, either
    # representative of the two equal points may survive, so the bits are
    # compared only where no coordinate is -0.0.
    new, old = convex_hull(pts), sorted_hull(pts)
    assert new.shape == old.shape and np.array_equal(new, old)
    if not np.signbit(pts[pts == 0.0]).any():
        assert new.tobytes() == old.tobytes()


def _range_polygon(A):
    return numerical_range_boundary(A, 256).polygon()


POLYGONS = {
    "point": np.array([[0.25, -0.5]]),
    "segment": np.array([[-1.0, 0.0], [1.0, 0.0]]),
    "collinear": np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
    "W(J2(0))": _range_polygon(generate("jordan", 2, value=0.0)),
    "W(random 5x5)": _range_polygon(generate("random", 5, seed=7)),
}


@pytest.mark.parametrize("name", sorted(POLYGONS))
def test_distance_matches_per_edge_loop(name):
    poly = POLYGONS[name]
    rng = np.random.default_rng(11)
    # 2500 points in one call: the kernel takes them in one pass, each point on its own
    pts = rng.uniform(-2.5, 2.5, size=(2500, 2))
    assert np.array_equal(distance_to_polygon(pts, poly), reference_distance(pts, poly))
    assert np.array_equal(distance_to_polygon(poly, poly), reference_distance(poly, poly))


# n = 65 solves 257 angles in 33 eigh batches of at most 8, so the chunk
# loop and batched eigh beyond one call are compared too.
@pytest.mark.parametrize("n", [*range(1, 9), 65])
def test_batched_range_matches_per_angle_loop(n):
    for A in (generate("random", n, seed=100 + n), generate("jordan", n, value=0.9)):
        for n_angles in (8, 257):
            got = numerical_range_boundary(A, n_angles).boundary_points
            assert np.array_equal(got, reference_range(A, n_angles))


# W(diag(1+i, -1+i, -i)) is a triangle with a horizontal top edge, which
# member-hull edges on the grid rows run parallel to: there a point between
# two hull vertices is as far from W(A) as they are in exact arithmetic, and
# the computed maximum must still come out at a vertex to the bit.
@pytest.mark.parametrize("A", [np.diag([1.0, -1.0]),
                               generate("jordan", 4, value=0.9).entries,
                               generate("random", 5, seed=2003).entries,
                               np.diag([1 + 1j, -1 + 1j, -1j])],
                         ids=["diag(1,-1)", "J4(0.9)", "random5", "diag(1+i,-1+i,-i)"])
@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_t9_worst_is_the_maximum_over_all_members(A, eps):
    field = compute_field(A, GridSpec.auto(A, eps, n=81))
    poly = _range_polygon(A)
    norm_a = spectral_norm(A)
    for check, kind, pad in ((check_t9, KIND_CONDITION, 2 * eps / (1 - eps) * norm_a),
                             (check_t9e, KIND_PSEUDO, eps)):
        members = field.member_nodes(eps, kind)
        pts = np.column_stack([members.real, members.imag])
        eroded = pts[hull_depths(pts, convex_hull(pts)) >= pad]
        r = check(A, eps, field)
        assert r.lhs == reference_distance(pts, poly).max()
        assert r.details["eroded_points"] == len(eroded)
        expected = reference_distance(eroded, poly).max() if len(eroded) else 0.0
        assert r.details["eroded_worst_distance"] == expected


# The verify corpus's recipe (fixed matrices, J2/J4/J8 at 0 and 0.9, random
# n = 2..6), random dense n = 16..64, and one eigenvalue / one disk at n = 1.
REACH_CASES = {
    "diag(1,-1)": np.diag([1.0, -1.0]),
    "identity": np.eye(2),
    "zero": np.zeros((2, 2)),
    **{f"J{n}({v})": generate("jordan", n, value=v).entries for n in (2, 4, 8) for v in (0.0, 0.9)},
    **{f"random{n}": generate("random", n, seed=40 + n).entries for n in range(2, 7)},
    "random1x1": np.array([[1.5 - 0.5j]]),
    "zero1x1": np.zeros((1, 1)),
    **{f"dense{n}": generate("random", n, seed=70 + n).entries for n in (16, 40, 64)},
}


def _recording(monkeypatch, module):
    """Replace module.distance_to_disks by a wrapper that keeps each call."""
    calls = []

    def record(points, centers, radii=0.0):
        out = distance_to_disks(points, centers, radii)
        calls.append((points, np.asarray(centers), out))
        return out

    monkeypatch.setattr(module, "distance_to_disks", record)
    return calls


@pytest.mark.parametrize("name", list(REACH_CASES))
def test_t3_reach_and_t8_worst_match_the_broadcast_forms(name, monkeypatch):
    A = REACH_CASES[name]
    field = field_for(A, 21 if A.shape[0] > 8 else 61, 0.4)
    diag = field.grid.cell_diagonal()
    reach_calls = _recording(monkeypatch, spectra)
    cover_calls = _recording(monkeypatch, theorems)
    for e in (0.05, 0.2, 0.4):
        try:
            component_count(field, e)
        except GridResolutionError:
            pass  # the reach was computed before the miss was reported
        [(points, eig, nearest)] = reach_calls
        reach_calls.clear()
        assert np.array_equal(eig, as_matrix(A).eigvals)
        assert nearest.tobytes() == reference_nearest(points, eig).tobytes()
        assert np.array_equal(nearest > diag, reference_nearest(points, eig) > diag)
        for check, kind in ((check_t8, CONDITION), (check_t8e, PSEUDO)):
            members = field.member_nodes(e, kind)
            disks = theorems._gerschgorin_disks(kind, as_matrix(A), e)
            centers = np.array([d.center for d in disks])
            radii = np.array([d.radius for d in disks])
            r = check(A, e, field)
            if members.size == 0:
                assert not cover_calls
                continue
            [(_, _, excess)] = cover_calls
            cover_calls.clear()
            expected = reference_disk_excess(members, centers, radii)
            assert excess.tobytes() == expected.tobytes()
            assert r.lhs == expected.max()


def test_disk_distance_on_disk_edges_and_ties():
    # 3+4i, 5i and -5 lie exactly on the edge of D(0, 5) and outside the
    # other disks; 5 is on the edges of D(0, 5) and D(10, 5), a tie.
    centers = np.array([0.0, 10.0, 13.0 + 0j])
    radii = np.array([5.0, 5.0, 3.0])
    points = np.array([3 + 4j, 5j, -5.0, 5.0, 0.0, 20.0 + 0j])
    got = distance_to_disks(points, centers, radii)
    assert got.tobytes() == reference_disk_excess(points, centers, radii).tobytes()
    assert list(got[:4]) == [0.0, 0.0, 0.0, 0.0] and not np.signbit(got[:4]).any()
    assert got[4] == -5.0 and got[5] == 4.0
    assert distance_to_disks(points, centers).tobytes() == \
        reference_nearest(points, centers).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40),
       st.lists(st.tuples(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                             allow_infinity=False),
                          st.floats(0.0, 1e6)), min_size=1, max_size=12))
def test_disk_distance_matches_broadcast(points, disks):
    points = np.array(points, dtype=np.complex128)
    centers = np.array([c for c, _ in disks], dtype=np.complex128)
    radii = np.array([r for _, r in disks])
    got = distance_to_disks(points, centers, radii)
    assert got.tobytes() == reference_disk_excess(points, centers, radii).tobytes()
