"""Condition-spectrum and pseudospectrum membership, grid fields, contours.

A point z belongs to the eps-condition spectrum of A when z*I - A is
singular or its condition number sigma_max/sigma_min reaches 1/eps (with
0 < eps < 1).  It belongs to the eps-pseudospectrum when
sigma_min(z*I - A) <= eps, i.e. the resolvent norm reaches 1/eps.  One
SpectrumKind record per kind (CONDITION, PSEUDO) holds every rule that
differs between the two: the eps range, the compared quantity and its
level, the boundary band, the bounding radius and the pad the theorems
share.  Functions that take a kind accept either record or its name.

Grid computation samples sigma_min, sigma_max and their ratio over a
rectangle of the complex plane; classification, contour extraction,
radii, distances and component counts are all derived from that field.
The field is one numkernel.shifted_extremes call over all nodes, which
owns the thread pool and the OpenBLAS pin, so fields and auto grids are
bit-identical at any CONDSPEC_THREADS and OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import GridResolutionError, GridTooSmallError
from .geometry import distance_to_disks
from .numkernel import (  # _thread_count: condbench's environment record reads it here
    ComplexMatrix,
    _memo,
    _read_only,
    _thread_count,
    as_matrix,
    condition_ratio,
    shifted_extremes,
    spectral_norm,
)

KIND_CONDITION = "condition"
KIND_PSEUDO = "pseudo"

# Default node count per axis and margin factor for auto-sized grids.
DEFAULT_GRID_NODES = 401
GRID_MARGIN = 1.1

# Relative half-width of the band around the membership level (ratio =
# 1/eps, sigma_min = eps) that set-inclusion and equivalence checks leave
# out: membership there is decided by rounding.
BOUNDARY_BAND = 1e-9

# Relative slack for comparisons that are exact in exact arithmetic.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class Epsilon:
    """Perturbation level.  Condition-spectrum use requires value < 1;
    pseudospectrum use admits any positive value."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"eps must be finite and > 0, got {self.value!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class SpectrumKind:
    """Everything that differs between the eps-condition spectrum and the
    eps-pseudospectrum.  CONDITION and PSEUDO are the only instances.

    Membership compares one quantity of z*I - A, picked from (sigma_min,
    ratio), with a level set by eps.  Reports are compared bit for bit, so
    each callable fixes its operation order: the pad is scale * 2.0 * eps
    / (1 - eps) * ||A|| left to right, not scale times the pad.
    """

    name: str
    suffix: str          # of theorem labels: T1σ, T1ε
    eps_limit: float     # eps must lie below it
    degree: int          # quantity of alpha + beta*A at z = |beta|**degree * A's at (z-alpha)/beta
    poles: bool          # the quantity is +inf at the eigenvalues
    quantity: Callable   # (sigma_min, ratio) -> the compared quantity
    measure: Callable    # (sigma_min, ratio) -> kappa or the resolvent norm, >= 1/eps inside
    level: Callable      # (eps, scale=1.0) -> scale times the level of the quantity
    inside: Callable     # (quantity, eps) -> membership
    off_level: Callable  # (quantity, eps) -> relative distance from the level
    depth: Callable      # (quantity, eps) -> margin, >= 1 inside level eps
    radius: Callable     # (eps, ||A||) -> radius of a disk about 0 holding the spectrum
    pad: Callable        # (eps, () -> ||A||, scale=1.0) -> scale times the pad of T4, T7-T9;
                         # ||A|| is taken only by the kind whose pad uses it

    def eps(self, eps) -> float:
        """Validate an Epsilon/float for this kind."""
        v = (eps if isinstance(eps, Epsilon) else Epsilon(eps)).value
        if v >= self.eps_limit:
            raise ValueError(f"{self.name}-spectrum eps must satisfy "
                             f"0 < eps < {self.eps_limit:g}, got {v}")
        return v

    def at(self, A, zs) -> tuple[np.ndarray, np.ndarray]:
        """(sigma_min, quantity) of z*I - A at every z in zs."""
        m = as_matrix(A)
        smin, smax = shifted_extremes(m, zs)
        return smin, self.quantity(smin, condition_ratio(smin, smax, m.n))


CONDITION = SpectrumKind(
    name=KIND_CONDITION, suffix="σ", eps_limit=1.0, degree=0, poles=True,
    quantity=lambda smin, ratio: ratio,
    measure=lambda smin, ratio: ratio,
    level=lambda e, scale=1.0: scale / e,
    inside=lambda ratio, e: ratio >= 1.0 / e,
    off_level=lambda ratio, e: abs(ratio * e - 1.0),
    depth=lambda ratio, e: ratio * e,
    radius=lambda e, norm: (1.0 + e) / (1.0 - e) * norm,
    pad=lambda e, norm, scale=1.0: scale * 2.0 * e / (1.0 - e) * norm(),
)

PSEUDO = SpectrumKind(
    name=KIND_PSEUDO, suffix="ε", eps_limit=np.inf, degree=1, poles=False,
    quantity=lambda smin, ratio: smin,
    measure=lambda smin, ratio: 1.0 / smin,
    level=lambda e, scale=1.0: scale * e,
    inside=lambda smin, e: smin <= e,
    off_level=lambda smin, e: abs(_quiet_divide(smin, e) - 1.0),
    depth=lambda smin, e: _ratio_or_inf(e, smin),
    radius=lambda e, norm: norm + e,
    pad=lambda e, norm, scale=1.0: scale * e,
)

_KINDS = {k.name: k for k in (CONDITION, PSEUDO)}


def _quiet_divide(a, b):
    """a / b, +-inf without a RuntimeWarning where it overflows or b is 0."""
    with np.errstate(over="ignore", divide="ignore"):
        return a / b


def _ratio_or_inf(e, smin):
    """e / smin, +inf where smin is not positive."""
    return np.where(smin > 0, _quiet_divide(e, smin), np.inf)


def spectrum_kind(kind) -> SpectrumKind:
    """The record of a kind given by record or by name."""
    if isinstance(kind, SpectrumKind):
        return kind
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown spectrum kind {kind!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid over the complex plane.  Its axes and
    nodes are built once per instance and are read-only."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    _facts: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        spans = (float(self.re_max) - float(self.re_min), float(self.im_max) - float(self.im_min))
        if not np.isfinite((self.re_min, self.re_max, self.im_min, self.im_max) + spans).all():
            raise ValueError(f"grid [{self.re_min:g}, {self.re_max:g}] x [{self.im_min:g}, "
                             f"{self.im_max:g}] spans {spans[0]:g} x {spans[1]:g}, past float64")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid rectangle must have positive extent")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")

    @classmethod
    def square(cls, radius: float, n: int = DEFAULT_GRID_NODES) -> "GridSpec":
        r = float(radius)
        return cls(-r, r, -r, r, n, n)

    @classmethod
    def auto(cls, A, eps_max, n: int = DEFAULT_GRID_NODES, kind: str = KIND_CONDITION) -> "GridSpec":
        """Square grid covering the bounding disk of the requested spectrum
        with a 10% margin (a floor keeps the grid nondegenerate for A = 0)."""
        r = GRID_MARGIN * bounding_region(A, eps_max, kind)
        return cls.square(max(r, 0.5), n)

    def re_axis(self) -> np.ndarray:
        return _memo(self._facts, "re", lambda: _read_only(
            np.linspace(self.re_min, self.re_max, self.nx)))

    @property
    def mirrored(self) -> bool:
        """Whether the im range is symmetric about the real axis; the im
        axis is then mirror-exact: im[::-1] == -im, bit for bit."""
        return self.im_min == -self.im_max

    def im_axis(self) -> np.ndarray:
        """np.linspace(im_min, im_max, ny), except on a mirrored range.
        There the upper half is taken from np.linspace(0.0, im_max, ...)
        (every other of its ny nodes, ending at im_max) and negated for the
        lower half: an odd ny puts +0.0 on the real axis, an even ny keeps
        the same spacing with no node there."""
        def make():
            if not self.mirrored:
                return np.linspace(self.im_min, self.im_max, self.ny)
            upper = np.linspace(0.0, self.im_max, self.ny)[1 - self.ny % 2::2]
            return np.concatenate([-upper[self.ny % 2:][::-1], upper])
        return _memo(self._facts, "im", lambda: _read_only(make()))

    @property
    def dre(self) -> float:
        return (self.re_max - self.re_min) / (self.nx - 1)

    @property
    def dim(self) -> float:
        return (self.im_max - self.im_min) / (self.ny - 1)

    def cell_diagonal(self) -> float:
        return float(np.hypot(self.dre, self.dim))

    def contains_disk(self, radius: float) -> bool:
        return (self.re_min <= -radius and self.re_max >= radius
                and self.im_min <= -radius and self.im_max >= radius)

    def nodes(self) -> np.ndarray:
        """(nx, ny) complex node array; entry [i, j] = re_i + 1j*im_j."""
        return _memo(self._facts, "nodes", lambda: _read_only(
            self.re_axis()[:, None] + 1j * self.im_axis()[None, :]))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Per-node sigma_min, sigma_max of z*I - A and their ratio.

    Arrays are (nx, ny), indexed [re, im]; ratio is +inf where z*I - A is
    numerically singular.  The source matrix is kept (when known) so that
    downstream checks can reach eigenvalues and the bounding disk; it is
    not part of the serialized form.  Member masks, member nodes and band
    nodes are built once per (eps, kind) and instance, and are read-only.
    """

    grid: GridSpec
    sigma_min: np.ndarray
    sigma_max: np.ndarray
    ratio: np.ndarray
    matrix: ComplexMatrix | None = dc_field(default=None, repr=False)
    _facts: dict = dc_field(default_factory=dict, init=False, repr=False)

    def quantity(self, kind) -> np.ndarray:
        """The kind's compared quantity at every node."""
        return spectrum_kind(kind).quantity(self.sigma_min, self.ratio)

    def member_mask(self, eps, kind: str = KIND_CONDITION) -> np.ndarray:
        """Membership at every node (condition spectrum by default)."""
        k = spectrum_kind(kind)
        e = k.eps(eps)
        return _memo(self._facts, ("mask", e, k.name),
                     lambda: _read_only(k.inside(self.quantity(k), e)))

    def member_nodes(self, eps, kind: str = KIND_CONDITION) -> np.ndarray:
        k = spectrum_kind(kind)
        e = k.eps(eps)
        return _memo(self._facts, ("nodes", e, k.name),
                     lambda: _read_only(self.grid.nodes()[self.member_mask(e, k)]))

    def band_nodes(self, eps, kind: str = KIND_CONDITION) -> np.ndarray:
        """Nodes whose quantity lies within a factor 2 of the membership
        level, in grid order."""
        k = spectrum_kind(kind)
        e = k.eps(eps)

        def make():
            q = self.quantity(k)
            return _read_only(self.grid.nodes()[(q >= k.level(e, 0.5)) & (q <= k.level(e, 2.0))])
        return _memo(self._facts, ("band", e, k.name), make)


def compute_field(A, grid: GridSpec) -> SpectralField:
    """Sample sigma_min/sigma_max/ratio of z*I - A at every grid node, in
    one shifted_extremes call: node values depend only on (A, grid).

    For a real A, conj(z)*I - A is the complex conjugate of z*I - A and has
    the same singular values; with LAPACK's sign-symmetric complex
    arithmetic they are the same bits.  So on a mirrored grid only the
    columns with im >= 0 are computed, and each column below the real axis
    is a copy of its mirror column."""
    m = as_matrix(A)
    half = grid.ny // 2 if grid.mirrored and not m.entries.imag.any() else 0
    smin, smax = (v.reshape(grid.nx, grid.ny - half)
                  for v in shifted_extremes(m, grid.nodes()[:, half:]))
    if half:  # field column j is computed column max(j, ny - 1 - j) - half
        j = np.arange(grid.ny)
        smin, smax = (v[:, np.maximum(j, j[::-1]) - half] for v in (smin, smax))
    smin, smax = _read_only(smin), _read_only(smax)
    return SpectralField(grid, smin, smax, _read_only(condition_ratio(smin, smax, m.n)), m)


def condition_number_at(A, z: complex) -> float:
    """kappa(z*I - A) = sigma_max/sigma_min; +inf when z is (numerically)
    an eigenvalue."""
    m = as_matrix(A)
    return float(condition_ratio(*shifted_extremes(m, z), m.n)[0])


def in_spectrum(A, z: complex, eps, kind: str = KIND_CONDITION) -> bool:
    """Whether z belongs to the eps-spectrum of A of the given kind."""
    k = spectrum_kind(kind)
    e = k.eps(eps)
    return bool(k.inside(k.at(A, z)[1][0], e))


def in_condition_spectrum(A, z: complex, eps) -> bool:
    return in_spectrum(A, z, eps, CONDITION)


def in_pseudospectrum(A, z: complex, eps) -> bool:
    return in_spectrum(A, z, eps, PSEUDO)


def auto_grid(A, eps_max, n: int = DEFAULT_GRID_NODES, kind: str = KIND_CONDITION) -> GridSpec:
    """The auto grid of a run up to eps_max: the square over the condition
    spectrum's bounding disk at min(eps_max, 0.9) (that radius grows without
    bound as eps -> 1) and, for any other kind, the pseudospectrum's at eps_max."""
    radii = [GridSpec.auto(A, min(float(eps_max), 0.9), n).re_max]
    if kind != KIND_CONDITION:
        radii.append(GridSpec.auto(A, eps_max, n, KIND_PSEUDO).re_max)
    return GridSpec.square(max(radii), n)


def bounding_region(A, eps, kind: str = KIND_CONDITION) -> float:
    """Radius R of a disk about 0 guaranteed to contain the spectrum:
    (1+eps)/(1-eps)*||A|| for the condition spectrum, ||A||+eps for the
    pseudospectrum."""
    norm = spectral_norm(A)
    k = spectrum_kind(kind)
    return k.radius(k.eps(eps), norm)


# ---------------------------------------------------------------------------
# Contours (marching squares on the log-scaled field)

@dataclass(frozen=True, eq=False)
class ContourLevel:
    """All polylines of one level: the boundary approximation for one eps."""

    eps: float
    kind: str
    polylines: tuple  # of (k, 2) float arrays [[re, im], ...]


@dataclass(frozen=True, eq=False)
class ContourSet:
    levels: tuple  # of ContourLevel

    def to_json_obj(self):
        return [
            {"eps": lv.eps, "polylines": [p.tolist() for p in lv.polylines]}
            for lv in self.levels
        ]


# Segment table for marching squares.  Corner bits: 0=(i,j), 1=(i+1,j),
# 2=(i+1,j+1), 3=(i,j+1); edges: 0 bottom, 1 right, 2 top, 3 left.  The
# saddles 5 and 10 take key +16 when the cell-center mean is at or above
# the level, which joins the two inside corners.
_MS_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 5: [(3, 0), (1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)], 10: [(0, 1), (2, 3)],
    11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(3, 0)],
    21: [(0, 1), (2, 3)], 26: [(3, 0), (1, 2)],
}
# Corner slices of the (nx-1, ny-1) cell array, in corner-bit order.
_MS_CORNERS = (np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:])


def _marching_squares(xs: np.ndarray, ys: np.ndarray, values: np.ndarray,
                      level: float, poles: np.ndarray) -> list[np.ndarray]:
    """Level-set polylines of a scalar field sampled at xs x ys.

    Every cell is classified at once: its case is the uint8 of its four
    inside-corner bits, and saddle cells (5, 10) are split by the
    cell-center mean.  Grid edges get integer ids, h(i, j) = i*ny + j for
    the edge from node (i, j) to (i+1, j) and v(i, j) = nx*ny + i*ny + j
    for the edge from (i, j) to (i, j+1), so every h id sorts before every
    v id and each kind sorts by (i, j).  Segments are chained on these ids
    in a fixed order (ends first, then all ids ascending), and each
    crossing point is interpolated along its own edge, so shared edges
    join exactly and the output does not depend on visit order.

    `poles` marks nodes whose original value was infinite (clamped before
    the call).  A cell whose only above-level corners are poles is skipped:
    the underlying level set there is empty or below grid resolution (an
    isolated eigenvalue of a scalar matrix, or a spectrum component thinner
    than one cell).
    """
    s = values - level
    inside = s >= 0.0
    nx, ny = s.shape
    case = sum(inside[c].astype(np.uint8) << bit for bit, c in enumerate(_MS_CORNERS))
    real = inside & ~poles
    keep = (case != 15) & np.any([real[c] for c in _MS_CORNERS], axis=0)
    saddle = keep & ((case == 5) | (case == 10))
    s00, s10, s11, s01 = (s[c][saddle] for c in _MS_CORNERS)
    case[saddle] += np.uint8(16) * (s00 + s10 + s11 + s01 >= 0.0)

    ci, cj = np.nonzero(keep)
    base = ci * ny + cj
    cell_edges = np.stack([base, base + nx * ny + ny, base + 1, base + nx * ny], -1)
    adj: dict = {}
    for edges, c in zip(cell_edges.tolist(), case[ci, cj].tolist()):
        for a, b in _MS_SEGMENTS[c]:
            adj.setdefault(edges[a], []).append(edges[b])
            adj.setdefault(edges[b], []).append(edges[a])

    visited = set()
    chains = []
    for start in sorted(e for e, nb in adj.items() if len(nb) == 1) + sorted(adj):
        for first in adj[start]:
            if (min(start, first), max(start, first)) in visited:
                continue
            chain = [start, first]
            visited.add((min(start, first), max(start, first)))
            while chain[-1] != start:
                here = chain[-1]
                nxt = next((n for n in adj[here]
                            if (min(here, n), max(here, n)) not in visited), None)
                if nxt is None:
                    break
                visited.add((min(here, nxt), max(here, nxt)))
                chain.append(nxt)
            chains.append(np.array(chain))

    polylines = []
    for chain in chains:
        vert = chain >= nx * ny
        i, j = np.divmod(np.where(vert, chain - nx * ny, chain), ny)
        i2, j2 = i + ~vert, j + vert
        t = s[i, j] / (s[i, j] - s[i2, j2])
        x = np.where(vert, xs[i], xs[i] + t * (xs[i2] - xs[i]))
        y = np.where(vert, ys[j] + t * (ys[j2] - ys[j]), ys[j])
        polylines.append(np.stack([x, y], -1))
    return polylines


def extract_contours(field: SpectralField, eps_list, kind: str = KIND_CONDITION) -> ContourSet:
    """Marching-squares boundary polylines at each requested eps.

    Condition kind traces ratio = 1/eps, pseudo kind sigma_min = eps, both
    on a log10 scale.  The log is taken once per kind; for each level the
    non-finite nodes (the poles, and log of 0) are clamped just past the
    working range, so interpolation stays inside the owning cell.  A level
    that never crosses inside the grid yields an empty polyline list for
    that eps (reported, not an error).
    """
    k = spectrum_kind(kind)
    xs = field.grid.re_axis()
    ys = field.grid.im_axis()
    with np.errstate(divide="ignore"):
        logs = np.log10(field.quantity(k))
    poles = ~np.isfinite(logs)
    finite = logs[~poles]
    bounds = (float(finite.min()), float(finite.max())) if finite.size else None
    levels = []
    for eps in eps_list:
        e = k.eps(eps)
        lv = float(np.log10(k.level(e)))
        lo, hi = bounds or (lv, lv)
        lo, hi = lo - 2.0, hi + 2.0
        t = np.nan_to_num(logs, nan=lo, posinf=max(hi, lv + 2.0), neginf=min(lo, lv - 2.0))
        polys = _marching_squares(xs, ys, t, lv, poles)
        levels.append(ContourLevel(e, k.name, tuple(polys)))
    return ContourSet(tuple(levels))


# ---------------------------------------------------------------------------
# Derived grid quantities

def _require_covering(A, eps, grid: GridSpec):
    r = bounding_region(A, eps)
    if not grid.contains_disk(r):
        raise GridTooSmallError(
            f"grid [{grid.re_min}, {grid.re_max}] x [{grid.im_min}, {grid.im_max}] "
            f"does not contain the bounding disk D(0, {r:.6g})")


def field_for(A, grid, eps) -> SpectralField:
    """`grid` itself when it is a SpectralField of A (or of no known
    matrix, as read from CSV), else the field of A on a GridSpec, or on an
    auto_grid of `grid` nodes per axis (None: the default count)."""
    if isinstance(grid, SpectralField):
        source = grid.matrix
        if source is not None and source is not A and not np.array_equal(
                source.entries, as_matrix(A).entries):
            raise ValueError("the given field was computed from another matrix")
        return grid
    if grid is None or isinstance(grid, int):
        grid = auto_grid(A, eps, DEFAULT_GRID_NODES if grid is None else grid)
    return compute_field(A, grid)


def member_radius(field: SpectralField, eps, kind: str = KIND_CONDITION) -> float:
    """max |z| over the member nodes, 0.0 when there are none."""
    members = field.member_nodes(eps, kind)
    return float(np.abs(members).max()) if members.size else 0.0


def condition_spectral_radius(A, eps, grid) -> float:
    """max |z| over grid nodes inside the condition spectrum: a resolution-
    limited lower bound of the true radius.  The grid must cover the
    bounding disk."""
    field = field_for(A, grid, eps)
    _require_covering(A, eps, field.grid)
    return member_radius(field, eps)


def member_distances(A, field: SpectralField, eps, zs, kind: str = KIND_CONDITION) -> np.ndarray:
    """min |c - z| for each z in zs over the candidates c: the member nodes
    of field, then the eigenvalues of A.  Eigenvalues are members at every
    eps, so the distance stays meaningful when no node classifies."""
    candidates = np.concatenate([field.member_nodes(eps, kind).ravel(), as_matrix(A).eigvals])
    return np.array([np.abs(candidates - z).min() for z in np.asarray(zs, np.complex128)],
                    dtype=np.float64)


def distance_to_condition_spectrum(A, z: complex, eps, grid) -> float:
    """Distance from z to the classified member set, accurate to one grid
    diagonal."""
    field = field_for(A, grid, eps)
    _require_covering(A, eps, field.grid)
    if in_spectrum(A, z, eps):
        return 0.0
    return float(member_distances(A, field, eps, [z])[0])


def component_count(field: SpectralField, eps) -> int:
    """Number of 4-connected components of the classified node set.

    The node nearest each eigenvalue is always included (eigenvalues belong
    to the spectrum at every eps), so the count is >= 1 even when the true
    components are below grid resolution.  Each component must hold an
    eigenvalue within one grid diagonal, else the grid is too coarse to
    trust and GridResolutionError is raised.
    """
    if field.matrix is None:
        raise ValueError("field was not computed from a matrix; component_count needs eigenvalues")
    A = field.matrix
    _require_covering(A, eps, field.grid)
    mask = np.array(field.member_mask(eps))

    re = field.grid.re_axis()
    im = field.grid.im_axis()
    eig = A.eigvals
    for lam in eig:
        ix = int(np.argmin(np.abs(re - lam.real)))
        iy = int(np.argmin(np.abs(im - lam.imag)))
        mask[ix, iy] = True

    labels, count = _label(mask)
    # A component is reached when one of its nodes is not farther than a
    # grid diagonal from the nearest eigenvalue.
    far = distance_to_disks(field.grid.nodes()[mask], eig) > field.grid.cell_diagonal()
    reached = np.zeros(count + 1, bool)
    reached[labels[mask][~far]] = True
    missed = np.flatnonzero(~reached[1:])
    if missed.size:
        raise GridResolutionError(
            f"component {missed[0] + 1} of {count} contains no eigenvalue within one "
            f"grid diagonal; refine the grid")
    return count


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a 2-D boolean mask: (labels, count), with
    int32 labels 1..count numbered in raster order of each component's
    first node and 0 off the mask.

    The runs of True along each row are joined to the overlapping runs of
    the next row by a union-find whose root is the lowest run index, so
    ranking the roots numbers the components in raster order."""
    width = mask.shape[1] + 1
    # Run boundaries alternate start, stop in raster order; a boundary's key
    # is row * width + column, the stop exclusive.
    start, stop = np.flatnonzero(np.diff(mask, axis=1, prepend=False, append=False)).reshape(-1, 2).T
    # The runs a of the row above run b that overlap it are lo[b] <= a < hi[b].
    lo = np.searchsorted(stop, start - width, side="right")
    hi = np.searchsorted(start, stop - width, side="left")
    pairs = hi - lo
    above = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs - lo, pairs)
    below = np.repeat(np.arange(start.size), pairs)
    parent = list(range(start.size))

    def root(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for a, b in zip(above.tolist(), below.tolist()):
        ra, rb = root(a), root(b)
        parent[max(ra, rb)] = min(ra, rb)
    roots = np.array(parent, dtype=np.intp)
    while (roots[roots] != roots).any():
        roots = roots[roots]
    is_root = roots == np.arange(roots.size)
    labels = np.zeros(mask.shape, np.int32)
    labels[mask] = np.repeat(np.cumsum(is_root, dtype=np.int32)[roots], stop - start)
    return labels, int(is_root.sum())


# ---------------------------------------------------------------------------
# Serialization

_FIELD_CSV_HEADER = "re,im,sigma_min,sigma_max,ratio"


def write_field_csv(field: SpectralField, fp) -> None:
    """CSV rows `re,im,sigma_min,sigma_max,ratio`, row-major over the grid
    (re index outer, im inner), 17 significant digits."""
    fp.write(_FIELD_CSV_HEADER + "\n")
    # Each axis value is formatted once.  A grid row is one template, the
    # re text joined onto the per-im-node tails, filled by a single `%`.
    tails = [",%.17g,%%.17g,%%.17g,%%.17g\n" % y for y in field.grid.im_axis().tolist()]
    values = np.stack([field.sigma_min, field.sigma_max, field.ratio], -1)
    for x, row in zip(field.grid.re_axis().tolist(), values):
        fp.write(("%.17g" % x).join([""] + tails) % tuple(row.ravel().tolist()))


def read_field_csv(fp) -> SpectralField:
    """Inverse of write_field_csv (the source matrix is not recoverable)."""
    header = fp.readline().strip()
    if header != _FIELD_CSV_HEADER:
        raise ValueError(f"unexpected field CSV header: {header!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows: raised below
        rows = np.loadtxt(fp, delimiter=",", ndmin=2)
    if rows.shape[0] == 0:
        raise ValueError("field CSV has no data rows")
    if rows.shape[1] != 5:
        raise ValueError(f"field CSV rows need 5 columns, got {rows.shape[1]}")
    re = np.unique(rows[:, 0])
    im = np.unique(rows[:, 1])
    nx, ny = len(re), len(im)
    if nx * ny != len(rows):
        raise ValueError("field CSV is not a complete rectangular grid")
    grid = GridSpec(float(re[0]), float(re[-1]), float(im[0]), float(im[-1]), nx, ny)
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    rows = rows[order]
    bad = np.flatnonzero((rows[:, 0] != np.repeat(re, ny)) | (rows[:, 1] != np.tile(im, nx)))
    if bad.size:  # some node is repeated, so another one is missing
        i = bad[0]
        raise ValueError(f"field CSV data row {order[i] + 1} (re {rows[i, 0]:.17g}, im "
                         f"{rows[i, 1]:.17g}) is where node (re {re[i // ny]:.17g}, im "
                         f"{im[i % ny]:.17g}) belongs")
    smin, smax, ratio = (_read_only(rows[:, c].reshape(nx, ny)) for c in (2, 3, 4))
    return SpectralField(grid, smin, smax, ratio, None)


def read_field_grid(fp) -> GridSpec:
    """The grid of a field CSV, read without parsing the node values.

    A file in compute's own row order is streamed, keeping only its axis
    tokens: re blocks in ascending order, each holding the first block's
    ascending im tokens, exactly 5 fields per row, and re and im tokens that
    parse as finite floats.  Any other file is read again from the start
    (fp must be seekable) by read_field_csv, so rows in any order still
    work and every file that read_field_csv rejects is still rejected,
    with one narrowing: in compute's order the three value tokens of a row
    are not parsed, so non-numeric values pass.
    """
    start = fp.tell()
    grid = _grid_in_compute_order(fp)
    if grid is None:
        fp.seek(start)
        grid = read_field_csv(fp).grid
    return grid


def _grid_in_compute_order(fp) -> GridSpec | None:
    """read_field_grid's streaming pass; None on any deviation."""
    if fp.readline().strip() != _FIELD_CSV_HEADER:
        return None
    re_tokens, im_tokens = [], None
    rows = map(str.split, fp, itertools.repeat(","))
    for re_token, block in itertools.groupby(rows, operator.itemgetter(0)):
        tokens = [f[1] if len(f) == 5 else None for f in block]
        if im_tokens is None:
            im_tokens = tokens
        if tokens != im_tokens or None in tokens:
            return None
        re_tokens.append(re_token)
    if im_tokens is None:
        return None
    re, im = _axis_values(re_tokens), _axis_values(im_tokens)
    if re is None or im is None:
        return None
    return GridSpec(float(re[0]), float(re[-1]), float(im[0]), float(im[-1]), len(re), len(im))


def _axis_values(tokens: list) -> np.ndarray | None:
    """Floats of axis tokens by read_field_csv's own parser; None unless
    there are at least 2, all finite and strictly ascending."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # all tokens blank
            values = np.loadtxt(tokens, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    if (len(values) < 2 or len(values) != len(tokens) or not np.isfinite(values).all()
            or not (np.diff(values) > 0.0).all()):
        return None
    return values
