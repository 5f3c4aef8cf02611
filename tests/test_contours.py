"""Marching-squares contour extraction: closure, accuracy, nesting."""

import numpy as np
import pytest

from condspec.spectra import GridSpec, compute_field, extract_contours

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
    contours = extract_contours(field, [0.3], "condition")
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
    contours = extract_contours(field, [0.3, 0.7], "condition")
    for level in contours.levels:
        assert level.polylines == ()


def test_monotone_nesting_random_matrix():
    rng = np.random.default_rng(44)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    grid = GridSpec.auto(A, 0.3, n=201)
    field = compute_field(A, grid)
    contours = extract_contours(field, [0.1, 0.3], "condition")
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
    contours = extract_contours(field, [0.3], "pseudo")
    polys = [p for p in contours.levels[0].polylines if len(p) > 2]
    assert polys
    assert any(polyline_contains(p, 0j) for p in polys)


def test_contour_json_shape():
    field = compute_field(DIAG, GridSpec(-3, 3, -3, 3, 81, 81))
    obj = extract_contours(field, [0.2, 0.4], "condition").to_json_obj()
    assert [lv["eps"] for lv in obj] == [0.2, 0.4]
    first = obj[0]["polylines"][0]
    assert isinstance(first[0], list) and len(first[0]) == 2


@pytest.mark.parametrize("eps", [0.2, 0.5])
def test_contour_points_lie_on_level_set(eps):
    grid = GridSpec(-3, 3, -3, 3, 161, 161)
    field = compute_field(DIAG, grid)
    level = extract_contours(field, [eps], "condition").levels[0]
    circles = apollonius_circles(eps)
    for poly in level.polylines:
        assert distance_to_circles(np.asarray(poly), circles).max() <= grid.cell_diagonal()
