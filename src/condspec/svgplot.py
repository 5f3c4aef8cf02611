"""Static SVG rendering of spectra: contour paths, eigenvalue markers,
legend and axis ticks.  Output is plain SVG 1.1 text, byte-identical for
identical inputs."""

from __future__ import annotations

import numpy as np

# Fixed palette, cycled per (kind, eps) series.
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf")

# Pixels between the image edge and the plot frame.
MARGIN = 48


def _fmt(x: float) -> str:
    return "%.4f" % x


def _mapper(bounds, width: int, height: int):
    """The pixel x of a real part and y of an imaginary part, the plot frame
    MARGIN px in from each edge."""
    re_min, re_max, im_min, im_max = bounds
    return (lambda re: MARGIN + (re - re_min) / (re_max - re_min) * (width - 2 * MARGIN),
            lambda im: MARGIN + (im_max - im) / (im_max - im_min) * (height - 2 * MARGIN))


def _path_d(pts: np.ndarray, x, y) -> str:
    """M x y L x y ...; a closed polyline ends in Z instead of its first point again."""
    closed = len(pts) > 2 and np.array_equal(pts[0], pts[-1])
    moves = [f"{'L' if i else 'M'} {_fmt(x(re))} {_fmt(y(im))}"
             for i, (re, im) in enumerate(pts[:-1] if closed else pts)]
    return " ".join(moves + ["Z"] * closed)


def render_svg(contour_groups, eigenvalues=None, bounds=None,
               width: int = 640, height: int = 640) -> str:
    """Build the SVG document.

    contour_groups: spectra.ContourLevel records, each drawn in its own
    color; pseudo contours are dashed, condition solid.
    bounds: (re_min, re_max, im_min, im_max); derived from the data when
    omitted.
    """
    levels = list(contour_groups)
    eigenvalues = np.asarray(eigenvalues if eigenvalues is not None else [],
                             dtype=np.complex128)
    if bounds is None:
        pts = np.concatenate([*(p for lv in levels for p in lv.polylines),
                              np.column_stack([eigenvalues.real, eigenvalues.imag])])
        if not pts.size:
            pts = np.array([[-1.0, -1.0], [1.0, 1.0]])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        # relative to the largest coordinate, so one point at 1e150 keeps a frame
        pad = 0.1 * max(*(hi - lo), 1e-6 * np.abs(pts).max(initial=1.0))
        bounds = (lo[0] - pad, hi[0] + pad, lo[1] - pad, hi[1] + pad)

    x, y = _mapper(bounds, width, height)
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')

    # Frame and ticks
    x0, y0 = MARGIN, MARGIN
    x1, y1 = width - MARGIN, height - MARGIN
    out.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')
    for t in np.linspace(bounds[0], bounds[1], 5):
        px = x(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{y1}" x2="{_fmt(px)}" y2="{y1 + 5}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px)}" y="{y1 + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="10">{t:.3g}</text>')
    for t in np.linspace(bounds[2], bounds[3], 5):
        py = y(t)
        out.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{x0 - 8}" y="{_fmt(py + 3)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="10">{t:.3g}</text>')
    out.append(f'<text x="{width // 2}" y="{height - 8}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="11">Re z</text>')
    out.append(f'<text x="14" y="{height // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="11" '
               f'transform="rotate(-90 14 {height // 2})">Im z</text>')

    # Contours
    styles = [(_COLORS[idx % len(_COLORS)],
               ' stroke-dasharray="6 3"' if lv.kind == "pseudo" else "")
              for idx, lv in enumerate(levels)]
    for lv, (color, dash) in zip(levels, styles):
        for poly in lv.polylines:
            if len(poly) >= 2:
                out.append(f'<path class="contour" d="{_path_d(poly, x, y)}" '
                           f'fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')

    # Eigenvalue markers (x crosses)
    r = 4
    for lam in eigenvalues:
        px, py = x(lam.real), y(lam.imag)
        out.append(f'<g class="eigenvalue" stroke="#000000" stroke-width="1.5">'
                   f'<line x1="{_fmt(px - r)}" y1="{_fmt(py - r)}" x2="{_fmt(px + r)}" y2="{_fmt(py + r)}"/>'
                   f'<line x1="{_fmt(px - r)}" y1="{_fmt(py + r)}" x2="{_fmt(px + r)}" y2="{_fmt(py - r)}"/></g>')

    # Legend
    ly = y0 + 14
    for lv, (color, dash) in zip(levels, styles):
        out.append(f'<line x1="{x1 - 150}" y1="{ly - 4}" x2="{x1 - 120}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"{dash}/>')
        label = ("cond" if lv.kind == "condition" else "pseudo") + f" eps={lv.eps:g}"
        out.append(f'<text x="{x1 - 114}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
        ly += 16
    if eigenvalues.size:
        out.append(f'<text x="{x1 - 150}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">x eigenvalues</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
