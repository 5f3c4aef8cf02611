"""Marching-squares contour extraction: closure, accuracy, nesting, and
byte equality with the per-cell reference implementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condspec.matrixio import generate
from condspec import jsonio
from condspec.spectra import (
    CONDITION,
    PSEUDO,
    ContourSet,
    GridSpec,
    SpectralField,
    _marching_squares,
    auto_grid,
    compute_field,
    extract_contours,
)

DIAG = np.diag([1.0, -1.0])


def closed_count(level):
    """Polylines of a contour level that end exactly where they start."""
    return sum(1 for p in level.polylines
               if len(p) > 2 and np.allclose(p[0], p[-1], rtol=0.0, atol=0.0))


def polyline_contains(polyline, point: complex) -> bool:
    """Crossing-number containment test for a closed polyline."""
    p = np.asarray(polyline, dtype=np.float64).reshape(-1, 2)
    x, y = float(np.real(point)), float(np.imag(point))
    inside = False
    for i in range(len(p)):
        x0, y0 = p[i]
        x1, y1 = p[(i + 1) % len(p)]
        if (y0 > y) != (y1 > y):
            xc = x0 + (y - y0) / (y1 - y0) * (x1 - x0)
            if xc > x:
                inside = not inside
    return inside


def apollonius_circles(eps):
    """Exact boundary of the condition spectrum of diag(1,-1): the pair of
    circles where |z-1|/|z+1| (or its reciprocal) equals 1/eps."""
    R = 1.0 / eps
    c = (R * R + 1.0) / (R * R - 1.0)
    r = np.sqrt(c * c - 1.0)
    return [(-c, r), (c, r)]


def distance_to_circles(points, circles):
    pts = points[:, 0] + 1j * points[:, 1]
    d = np.full(len(pts), np.inf)
    for cx, r in circles:
        d = np.minimum(d, np.abs(np.abs(pts - cx) - r))
    return d


def test_two_closed_curves_near_analytic_boundary():
    grid = GridSpec(-3, 3, -3, 3, 201, 201)
    field = compute_field(DIAG, grid)
    contours = extract_contours(field, [0.3], CONDITION)
    level = contours.levels[0]
    assert level.eps == 0.3
    assert len(level.polylines) == 2
    assert closed_count(level) == 2
    circles = apollonius_circles(0.3)
    for poly in level.polylines:
        assert distance_to_circles(np.asarray(poly), circles).max() <= grid.cell_diagonal()


def test_no_contour_for_zero_matrix_away_from_origin():
    grid = GridSpec(1.0, 2.0, 1.0, 2.0, 21, 21)
    field = compute_field(np.zeros((2, 2)), grid)
    contours = extract_contours(field, [0.3, 0.7], CONDITION)
    for level in contours.levels:
        assert level.polylines == ()


def test_monotone_nesting_random_matrix():
    rng = np.random.default_rng(44)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    grid = auto_grid(A, 0.3, 201)
    field = compute_field(A, grid)
    contours = extract_contours(field, [0.1, 0.3], CONDITION)
    inner = contours.levels[0].polylines
    outer = [p for p in contours.levels[1].polylines if len(p) > 2]
    assert inner and outer
    for poly in inner:
        for point in np.asarray(poly)[::5]:
            z = complex(point[0], point[1])
            assert any(polyline_contains(o, z) for o in outer)


def test_pseudo_contours_enclose_eigenvalues():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    grid = GridSpec(-2, 2, -2, 2, 161, 161)
    field = compute_field(A, grid)
    contours = extract_contours(field, [0.3], PSEUDO)
    polys = [p for p in contours.levels[0].polylines if len(p) > 2]
    assert polys
    assert any(polyline_contains(p, 0j) for p in polys)


def test_contour_json_shape():
    field = compute_field(DIAG, GridSpec(-3, 3, -3, 3, 81, 81))
    obj = extract_contours(field, [0.2, 0.4], CONDITION).to_json_obj()
    assert [lv["eps"] for lv in obj] == [0.2, 0.4]
    first = obj[0]["polylines"][0]
    assert isinstance(first[0], list) and len(first[0]) == 2


@pytest.mark.parametrize("kind", [CONDITION, PSEUDO], ids=["condition", "pseudo"])
def test_contour_json_reads_back_bit_for_bit(kind):
    field = compute_field(generate("jordan", 3, value=0.5), GridSpec(-3, 3, -2.5, 3, 61, 53))
    contours = extract_contours(field, [0.05, 0.2, 0.4], kind)
    back = ContourSet.from_json_obj(jsonio.loads(jsonio.dumps(contours.to_json_obj())), kind)
    assert len(back.levels) == 3 and all(lv.polylines for lv in back.levels)
    for lv, orig in zip(back.levels, contours.levels):
        assert (lv.eps, lv.kind) == (orig.eps, kind.name)
        assert [p.tobytes() for p in lv.polylines] == [p.tobytes() for p in orig.polylines]


@pytest.mark.parametrize("obj, message", [
    ({"eps": 0.1, "polylines": []}, "must be a list of levels"),
    ([{"eps": True, "polylines": []}], "a numeric 'eps' and a 'polylines' list"),
    ([{"eps": 0.1, "polylines": [[1, 2, 3]]}], r"lists of \[re, im\] pairs"),
    ([{"eps": 10**400, "polylines": []}], "beyond the float64 range"),
    ([{"eps": 0.1, "polylines": [[[0, float("inf")]]]}], "must be finite"),
    ([{"eps": 1.0, "polylines": []}], "0 < eps < 1"),
    ([{"eps": 0.1, "polylines": [[0, 0, 1, 1]]}], r"lists of \[re, im\] pairs"),
    ([{"eps": 0.1, "polylines": [[[[0, 0], [1, 1]], [[2, 2], [3, 3]]]]}],
     r"lists of \[re, im\] pairs"),
])
def test_contour_json_rule_rejects(obj, message):
    with pytest.raises(ValueError, match=message):
        ContourSet.from_json_obj(obj, CONDITION)


@pytest.mark.parametrize("eps", [0.2, 0.5])
def test_contour_points_lie_on_level_set(eps):
    grid = GridSpec(-3, 3, -3, 3, 161, 161)
    field = compute_field(DIAG, grid)
    level = extract_contours(field, [eps], CONDITION).levels[0]
    circles = apollonius_circles(eps)
    for poly in level.polylines:
        assert distance_to_circles(np.asarray(poly), circles).max() <= grid.cell_diagonal()


# --- Byte oracle: the per-cell marching squares ------------------------------
#
# The implementation this module's array code replaced, kept verbatim as the
# reference: a Python loop over active cells, a separate saddle branch and
# string-tagged edge tuples, with log10 taken again for every level.

_REF_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(3, 0)],
}


def ref_marching_squares(xs, ys, values, level, poles=None):
    s = values - level
    inside = s >= 0.0
    nx, ny = values.shape
    if poles is None:
        poles = np.zeros_like(inside)

    cross_b = inside[:-1, :] != inside[1:, :]
    cross_l = inside[:, :-1] != inside[:, 1:]

    def h_point(i, j):
        t = s[i, j] / (s[i, j] - s[i + 1, j])
        return (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])

    def v_point(i, j):
        t = s[i, j] / (s[i, j] - s[i, j + 1])
        return (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))

    active = (cross_b[:, :-1] | cross_b[:, 1:] | cross_l[:-1, :] | cross_l[1:, :])
    segments = []
    for i, j in zip(*np.nonzero(active)):
        case = (int(inside[i, j]) | int(inside[i + 1, j]) << 1
                | int(inside[i + 1, j + 1]) << 2 | int(inside[i, j + 1]) << 3)
        if case in (0, 15):
            continue
        corner_in = (inside[i, j], inside[i + 1, j], inside[i + 1, j + 1], inside[i, j + 1])
        corner_pole = (poles[i, j], poles[i + 1, j], poles[i + 1, j + 1], poles[i, j + 1])
        if all(p for ci, p in zip(corner_in, corner_pole) if ci):
            continue
        if case in (5, 10):
            center_in = (s[i, j] + s[i + 1, j] + s[i + 1, j + 1] + s[i, j + 1]) >= 0.0
            if case == 5:
                segs = [(0, 1), (2, 3)] if center_in else [(3, 0), (1, 2)]
            else:
                segs = [(3, 0), (1, 2)] if center_in else [(0, 1), (2, 3)]
        else:
            segs = _REF_SEGMENTS[case]
        edge_ids = {
            0: ("h", i, j),
            1: ("v", i + 1, j),
            2: ("h", i, j + 1),
            3: ("v", i, j),
        }
        for ea, eb in segs:
            segments.append((edge_ids[ea], edge_ids[eb]))

    if not segments:
        return []

    adj: dict = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    def edge_point(eid):
        kind_, i, j = eid
        return h_point(i, j) if kind_ == "h" else v_point(i, j)

    visited = set()
    polylines = []

    def walk(start, first):
        chain = [start, first]
        visited.add(_key(start, first))
        while True:
            nxts = [n for n in adj[chain[-1]]
                    if _key(chain[-1], n) not in visited]
            if not nxts:
                break
            n = nxts[0]
            visited.add(_key(chain[-1], n))
            chain.append(n)
            if n == start:
                break
        return chain

    def _key(a, b):
        return (a, b) if a <= b else (b, a)

    ends = sorted(e for e, nb in adj.items() if len(nb) == 1)
    for e in ends:
        for n in adj[e]:
            if _key(e, n) not in visited:
                polylines.append(walk(e, n))
    for e in sorted(adj):
        for n in adj[e]:
            if _key(e, n) not in visited:
                polylines.append(walk(e, n))

    return [np.array([edge_point(eid) for eid in chain]) for chain in polylines]


def ref_log_scaled(values, level):
    with np.errstate(divide="ignore"):
        t = np.log10(values)
    lv = float(np.log10(level))
    poles = ~np.isfinite(t)
    finite = t[~poles]
    hi = (float(finite.max()) if finite.size else lv) + 2.0
    lo = (float(finite.min()) if finite.size else lv) - 2.0
    t = np.nan_to_num(t, nan=lo, posinf=max(hi, lv + 2.0), neginf=min(lo, lv - 2.0))
    return t, lv, poles


def ref_contours(field, eps_list, kind):
    """(eps, polylines) per level, as the reference extracted them."""
    xs, ys = field.grid.re_axis(), field.grid.im_axis()
    out = []
    for eps in eps_list:
        e = kind.eps(eps)
        t, lv, poles = ref_log_scaled(field.quantity(kind), kind.level(e))
        out.append((e, ref_marching_squares(xs, ys, t, lv, poles)))
    return out


def polyline_bytes(polylines):
    return [(p.dtype.str, p.shape, p.tobytes()) for p in polylines]


def assert_same_contours(field, eps_list, kind):
    got = extract_contours(field, eps_list, kind)
    want = ref_contours(field, eps_list, kind)
    assert [lv.eps for lv in got.levels] == [e for e, _ in want]
    for lv, (_, polys) in zip(got.levels, want):
        assert polyline_bytes(lv.polylines) == polyline_bytes(polys)


# Axis ends; a -0.0 end puts -0.0 on the axis.
axis_ends = st.sampled_from([(-2.0, -0.0), (-0.0, 1.5), (-1.0, 1.0), (-3.0, 7.25)])


@st.composite
def level_grids(draw):
    """Small integer-valued grids, so nodes sit exactly on an integer level
    and saddle centers sum exactly to it, with a random pole mask."""
    nx, ny = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    (re_min, re_max), (im_min, im_max) = draw(axis_ends), draw(axis_ends)
    values = np.array(draw(st.lists(st.integers(-3, 3), min_size=nx * ny,
                                    max_size=nx * ny)), dtype=np.float64).reshape(nx, ny)
    poles = np.array(draw(st.lists(st.booleans(), min_size=nx * ny,
                                   max_size=nx * ny))).reshape(nx, ny)
    xs = np.linspace(re_min, re_max, nx)
    ys = np.linspace(im_min, im_max, ny)
    return xs, ys, values, float(draw(st.integers(-2, 2))), poles


@settings(max_examples=300, deadline=None)
@given(level_grids())
def test_marching_squares_bytes_match_reference(args):
    xs, ys, values, level, poles = args
    assert (polyline_bytes(_marching_squares(xs, ys, values, level, poles))
            == polyline_bytes(ref_marching_squares(xs, ys, values, level, poles)))


def test_marching_squares_saddles_both_ways():
    xs = ys = np.array([0.0, 1.0])
    for values in ([[1.0, -1.0], [-1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]]):
        for center in (-0.5, 0.0, 0.5):  # the corners sum to -4 * center
            v = np.array(values) - center
            poles = np.zeros((2, 2), dtype=bool)
            got = _marching_squares(xs, ys, v, 0.0, poles)
            assert len(got) == 2
            assert polyline_bytes(got) == polyline_bytes(ref_marching_squares(xs, ys, v, 0.0))


# Node values whose log10 is an exact integer, so levels 1/eps = 10 and 100
# (condition) or eps = 0.1, 1 (pseudo) are hit exactly; 0 and inf are poles.
node_values = st.sampled_from([0.0, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, np.inf])


@st.composite
def small_fields(draw):
    nx, ny = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    (re_min, re_max), (im_min, im_max) = draw(axis_ends), draw(axis_ends)
    grid = GridSpec(re_min, re_max, im_min, im_max, nx, ny)
    smin, ratio = (np.array(draw(st.lists(node_values, min_size=nx * ny,
                                          max_size=nx * ny))).reshape(nx, ny)
                   for _ in range(2))
    return SpectralField(grid, smin, np.ones((nx, ny)), ratio)


@settings(max_examples=150, deadline=None)
@given(small_fields())
def test_extract_contours_bytes_match_reference(field):
    assert_same_contours(field, [0.1, 0.01, 0.3], CONDITION)
    assert_same_contours(field, [0.1, 1.0, 0.3], PSEUDO)


def _acceptance_corpus():
    """The acceptance corpus: fixed matrices plus 50 seeded random ones."""
    mats = [np.diag([1.0, -1.0]), np.eye(2), np.zeros((2, 2))]
    for n in (2, 4, 8):
        mats += [generate("jordan", n, value=0.0).entries,
                 generate("jordan", n, value=0.9).entries]
    mats += [generate("random", 2 + i % 5, seed=2000 + i).entries for i in range(50)]
    return mats


@pytest.mark.parametrize("kind", [CONDITION, PSEUDO], ids=["condition", "pseudo"])
def test_corpus_contour_bytes_match_reference(kind):
    for A in _acceptance_corpus():
        field = compute_field(A, auto_grid(A, 0.4, 61))
        assert_same_contours(field, [1e-6, 0.05, 0.4], kind)
