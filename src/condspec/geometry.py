"""Small planar-geometry kernel: hulls, polygon and disk distances, hull depths.

Points are (k, 2) float arrays or complex scalars/arrays; polygons are
(m, 2) vertex arrays.  Everything is deterministic.  `distance_to_polygon`,
`distance_to_disks` and `hull_depths` are vectorized over the points;
`convex_hull` runs its Python monotone chain only over the two ends of each
row of equal y; `dedupe_ring` loops over vertices in Python.
"""

from __future__ import annotations

import numpy as np


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in CCW order.

    Collinear inputs collapse to the 2-point (or 1-point) degenerate hull.
    Each row of equal y first keeps only its leftmost and rightmost point,
    found with one lexsort: the others lie on the segment between those
    two, so they are never vertices.  Only the kept points are deduped and
    sorted by (x, y) for the chain.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) > 2:
        by_row = np.lexsort((pts[:, 0], pts[:, 1]))
        y = pts[by_row, 1]
        row_end = np.append(y[1:] != y[:-1], True)
        row_start = np.insert(row_end[:-1], 0, True)
        pts = pts[by_row[row_start | row_end]]
    pts = np.unique(pts, axis=0)
    if len(pts) <= 2:
        return pts

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


def distance_to_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a convex polygon (as a set:
    zero inside).  Degenerate polygons (segment/point) are handled as the
    point sets they are."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    poly = np.asarray(poly, dtype=np.float64).reshape(-1, 2)
    if len(poly) == 1:
        return np.hypot(pts[:, 0] - poly[0, 0], pts[:, 1] - poly[0, 1])
    a = poly if len(poly) > 2 else poly[:1]
    d = np.roll(poly, -1, axis=0)[:len(a)] - a
    # Batched matmul gives the bits of a per-edge `d @ d` and `(p - a) @ d`.
    L2 = (d[:, None, :] @ d[:, :, None])[:, :, 0]
    # An edge with d @ d == 0 measures the distance to its start point.
    point_edge = L2 == 0.0
    d = np.where(point_edge, 0.0, d)
    L2 = np.where(point_edge, 1.0, L2)
    area = polygon_signed_area(poly) if len(poly) >= 3 else 0.0
    ccw = poly if area > 0 else poly[::-1]
    ccw_d = np.roll(ccw, -1, axis=0) - ccw
    t = np.clip(((pts - a[:, None, :]) @ d[:, :, None])[:, :, 0] / L2, 0.0, 1.0)
    proj = a[:, None, :] + t[:, :, None] * d[:, None, :]
    dist = np.hypot(pts[:, 0] - proj[:, :, 0], pts[:, 1] - proj[:, :, 1]).min(axis=0)
    if abs(area) > 0.0:
        cr = (ccw_d[:, None, 0] * (pts[:, 1] - ccw[:, None, 1])
              - ccw_d[:, None, 1] * (pts[:, 0] - ccw[:, None, 0]))
        dist = np.where((cr >= 0.0).all(axis=0), 0.0, dist)
    return dist


def distance_to_disks(points: np.ndarray, centers, radii=0.0) -> np.ndarray:
    """min over j of |p - c_j| - r_j for each complex point p: how far p
    lies outside the union of the disks D(c_j, r_j), negative inside it.
    With radii 0 it is the distance to the nearest center.  A running
    minimum over the disks, so the extra memory is O(points), not
    O(points * disks); each term has the bits of the broadcast form."""
    excess = np.full(np.shape(points), np.inf)
    for c, r in zip(centers, np.broadcast_to(radii, np.shape(centers))):
        np.minimum(excess, np.abs(points - c) - r, out=excess)
    return excess


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

