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


class _Mapper:
    def __init__(self, bounds, width, height, margin):
        self.re_min, self.re_max, self.im_min, self.im_max = bounds
        self.mx = margin
        self.w = width - 2 * margin
        self.h = height - 2 * margin

    def x(self, re):
        return self.mx + (re - self.re_min) / (self.re_max - self.re_min) * self.w

    def y(self, im):
        return self.mx + (self.im_max - im) / (self.im_max - self.im_min) * self.h


def _path_d(poly: np.ndarray, mapper: _Mapper) -> str:
    pts = np.asarray(poly, dtype=np.float64)
    closed = len(pts) > 2 and np.array_equal(pts[0], pts[-1])
    body = pts[:-1] if closed else pts
    cmds = ["M %s %s" % (_fmt(mapper.x(body[0, 0])), _fmt(mapper.y(body[0, 1])))]
    for p in body[1:]:
        cmds.append("L %s %s" % (_fmt(mapper.x(p[0])), _fmt(mapper.y(p[1]))))
    if closed:
        cmds.append("Z")
    return " ".join(cmds)


def _ticks(lo: float, hi: float, count: int = 5):
    return np.linspace(lo, hi, count)


def render_svg(contour_groups, eigenvalues=None, bounds=None,
               width: int = 640, height: int = 640) -> str:
    """Build the SVG document.

    contour_groups: list of (kind, eps, polylines) with polylines as
    (k, 2) arrays; pseudo contours are dashed, condition solid.
    bounds: (re_min, re_max, im_min, im_max); derived from the data when
    omitted.
    """
    contour_groups = list(contour_groups)
    eigenvalues = np.asarray(eigenvalues if eigenvalues is not None else [],
                             dtype=np.complex128)
    if bounds is None:
        xs, ys = [], []
        for _, _, polys in contour_groups:
            for p in polys:
                xs.extend(np.asarray(p)[:, 0])
                ys.extend(np.asarray(p)[:, 1])
        xs.extend(eigenvalues.real)
        ys.extend(eigenvalues.imag)
        if not xs:
            xs, ys = [-1.0, 1.0], [-1.0, 1.0]
        # relative to the largest coordinate, so one point at 1e150 keeps a frame
        pad = 0.1 * max(max(xs) - min(xs), max(ys) - min(ys),
                        1e-6 * np.abs(xs + ys).max(initial=1.0))
        bounds = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)

    m = _Mapper(bounds, width, height, MARGIN)
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')

    # Frame and ticks
    x0, y0 = MARGIN, MARGIN
    x1, y1 = width - MARGIN, height - MARGIN
    out.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')
    for t in _ticks(bounds[0], bounds[1]):
        px = m.x(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{y1}" x2="{_fmt(px)}" y2="{y1 + 5}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px)}" y="{y1 + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="10">{t:.3g}</text>')
    for t in _ticks(bounds[2], bounds[3]):
        py = m.y(t)
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
    legend = []
    for idx, (kind, eps, polys) in enumerate(contour_groups):
        color = _COLORS[idx % len(_COLORS)]
        dash = ' stroke-dasharray="6 3"' if kind == "pseudo" else ""
        legend.append((kind, eps, color, bool(dash)))
        for poly in polys:
            if len(poly) < 2:
                continue
            out.append(f'<path class="contour" d="{_path_d(np.asarray(poly), m)}" '
                       f'fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')

    # Eigenvalue markers (x crosses)
    r = 4
    for lam in eigenvalues:
        px, py = m.x(lam.real), m.y(lam.imag)
        out.append(f'<g class="eigenvalue" stroke="#000000" stroke-width="1.5">'
                   f'<line x1="{_fmt(px - r)}" y1="{_fmt(py - r)}" x2="{_fmt(px + r)}" y2="{_fmt(py + r)}"/>'
                   f'<line x1="{_fmt(px - r)}" y1="{_fmt(py + r)}" x2="{_fmt(px + r)}" y2="{_fmt(py - r)}"/></g>')

    # Legend
    ly = y0 + 14
    for kind, eps, color, dashed in legend:
        dash = ' stroke-dasharray="6 3"' if dashed else ""
        out.append(f'<line x1="{x1 - 150}" y1="{ly - 4}" x2="{x1 - 120}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"{dash}/>')
        label = ("cond" if kind == "condition" else "pseudo") + f" eps={eps:g}"
        out.append(f'<text x="{x1 - 114}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
        ly += 16
    if eigenvalues.size:
        out.append(f'<text x="{x1 - 150}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">x eigenvalues</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
