"""Small planar-geometry kernel: hulls, polygon distances, containment.

Points are (k, 2) float arrays or complex scalars/arrays; polygons are
(m, 2) vertex arrays.  Everything is deterministic and loop-free where the
point count is large.
"""

from __future__ import annotations

import numpy as np


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in CCW order.

    Collinear inputs collapse to the 2-point (or 1-point) degenerate hull.
    """
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 2:  # all points coincident after dedupe
        return pts[:1]
    return hull


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polygon_signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def is_convex_polygon(poly: np.ndarray, tol: float = 0.0) -> bool:
    """Cross-product sign test; collinear (degenerate) chains pass."""
    p = np.asarray(poly, dtype=np.float64)
    if len(p) < 3:
        return True
    a = np.roll(p, -1, axis=0) - p
    b = np.roll(a, -1, axis=0)
    cr = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return bool(np.all(cr >= -tol) or np.all(cr <= tol))


def dedupe_ring(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop consecutive near-duplicates (cyclically)."""
    p = np.asarray(points, dtype=np.float64)
    if len(p) == 0:
        return p
    keep = [0]
    for i in range(1, len(p)):
        if np.hypot(*(p[i] - p[keep[-1]])) > tol:
            keep.append(i)
    if len(keep) > 1 and np.hypot(*(p[keep[-1]] - p[keep[0]])) <= tol:
        keep.pop()
    return p[keep]


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    L2 = float(d @ d)
    if L2 == 0.0:
        return np.hypot(points[:, 0] - a[0], points[:, 1] - a[1])
    t = np.clip(((points - a) @ d) / L2, 0.0, 1.0)
    proj = a + t[:, None] * d
    return np.hypot(points[:, 0] - proj[:, 0], points[:, 1] - proj[:, 1])


def distance_to_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a convex polygon (as a set:
    zero inside).  Degenerate polygons (segment/point) are handled as the
    point sets they are."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    poly = np.asarray(poly, dtype=np.float64).reshape(-1, 2)
    if len(poly) == 1:
        return np.hypot(pts[:, 0] - poly[0, 0], pts[:, 1] - poly[0, 1])
    edges = [(poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))]
    if len(poly) == 2:
        edges = edges[:1]
    dmin = np.min(np.stack([_segment_distances(pts, a, b) for a, b in edges]), axis=0)
    if len(poly) >= 3 and abs(polygon_signed_area(poly)) > 0.0:
        ccw = poly if polygon_signed_area(poly) > 0 else poly[::-1]
        inside = np.ones(len(pts), dtype=bool)
        for i in range(len(ccw)):
            a, b = ccw[i], ccw[(i + 1) % len(ccw)]
            cr = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            inside &= cr >= 0.0
        dmin = np.where(inside, 0.0, dmin)
    return dmin


def hull_depths(points: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Signed inward distance of each point to a CCW convex hull boundary
    (negative outside).  Degenerate hulls have depth <= 0 everywhere."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    hull = np.asarray(hull, dtype=np.float64).reshape(-1, 2)
    if len(hull) < 3 or abs(polygon_signed_area(hull)) == 0.0:
        return np.full(len(pts), -np.inf)
    ccw = hull if polygon_signed_area(hull) > 0 else hull[::-1]
    depths = np.full(len(pts), np.inf)
    for i in range(len(ccw)):
        a, b = ccw[i], ccw[(i + 1) % len(ccw)]
        L = np.hypot(b[0] - a[0], b[1] - a[1])
        if L == 0.0:
            continue
        cr = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
        depths = np.minimum(depths, cr / L)
    return depths


def polyline_contains(polyline: np.ndarray, point: complex) -> bool:
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
