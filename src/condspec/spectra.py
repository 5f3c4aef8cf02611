"""Condition-spectrum and pseudospectrum membership, grid fields, contours.

A point z belongs to the eps-condition spectrum of A when z*I - A is
singular or its condition number sigma_max/sigma_min reaches 1/eps (with
0 < eps < 1).  It belongs to the eps-pseudospectrum when
sigma_min(z*I - A) <= eps, i.e. the resolvent norm reaches 1/eps.

Grid computation samples sigma_min, sigma_max and their ratio over a
rectangle of the complex plane; classification, contour extraction,
radii, distances and component counts are all derived from that field.
Per-node evaluations are independent, so the field is computed by a
thread pool (capped by the CONDSPEC_THREADS environment variable) whose
workers own fixed whole rows.  That pool is the only parallelism: while it
runs, and while ||A|| is taken for the bounding radius that sizes auto
grids, every loaded OpenBLAS is pinned to one thread and then set back.
BLAS threads nested under the pool would oversubscribe the cores, and a
multi-threaded SVD rounds differently from n ~ 64 on.  So fields and auto
grids are bit-identical at any CONDSPEC_THREADS and OPENBLAS_NUM_THREADS;
on a BLAS without OpenBLAS's thread-count entry points the pin does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import GridResolutionError, GridTooSmallError
from .numkernel import (
    ComplexMatrix,
    as_matrix,
    condition_ratio,
    eigenvalues,
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


def eps_value(eps, kind: str = KIND_CONDITION) -> float:
    """Validate an Epsilon/float for the given spectrum kind."""
    v = (eps if isinstance(eps, Epsilon) else Epsilon(eps)).value
    if kind == KIND_CONDITION and v >= 1.0:
        raise ValueError(f"condition-spectrum eps must satisfy 0 < eps < 1, got {v}")
    if kind not in (KIND_CONDITION, KIND_PSEUDO):
        raise ValueError(f"unknown spectrum kind {kind!r}")
    return v


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid over the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
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
        return np.linspace(self.re_min, self.re_max, self.nx)

    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

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
        return self.re_axis()[:, None] + 1j * self.im_axis()[None, :]


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Per-node sigma_min, sigma_max of z*I - A and their ratio.

    Arrays are (nx, ny), indexed [re, im]; ratio is +inf where z*I - A is
    numerically singular.  The source matrix is kept (when known) so that
    downstream checks can reach eigenvalues and the bounding disk; it is
    not part of the serialized form.
    """

    grid: GridSpec
    sigma_min: np.ndarray
    sigma_max: np.ndarray
    ratio: np.ndarray
    matrix: ComplexMatrix | None = dc_field(default=None, repr=False)

    def member_mask(self, eps) -> np.ndarray:
        """Condition-spectrum membership at every node."""
        return self.ratio >= 1.0 / eps_value(eps, KIND_CONDITION)

    def pseudo_mask(self, eps) -> np.ndarray:
        return self.sigma_min <= eps_value(eps, KIND_PSEUDO)

    def member_nodes(self, eps, kind: str = KIND_CONDITION) -> np.ndarray:
        mask = self.member_mask(eps) if kind == KIND_CONDITION else self.pseudo_mask(eps)
        return self.grid.nodes()[mask]


def _thread_count() -> int:
    raw = os.environ.get("CONDSPEC_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValueError(f"CONDSPEC_THREADS must be an integer >= 1, got {raw!r}") from exc
        if cap < 1:
            raise ValueError(f"CONDSPEC_THREADS must be >= 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return min(cap, 32)


# C entry points of OpenBLAS's thread count: plain OpenBLAS, then the
# scipy-openblas builds of scipy (32-bit ints) and numpy (64-bit ints).
_OPENBLAS_NAMES = (("openblas_get_num_threads", "openblas_set_num_threads"),
                   ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
                   ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"))

# Held from saving the BLAS thread counts to restoring them, so concurrent
# fields cannot restore each other's pin.  Each field already fills every
# core, so serializing them costs nothing.
_BLAS_PIN_LOCK = threading.Lock()


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into this
    process: numpy and scipy may each bring their own copy.  Empty without
    /proc or without OpenBLAS."""
    try:
        with open("/proc/self/maps") as fp:
            fields = [line.split(maxsplit=5) for line in fp]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in f[5].lower()})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_NAMES:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return tuple(controls)


@contextlib.contextmanager
def _single_threaded_blas():
    """Pin every loaded OpenBLAS to one thread, restoring its count on exit.
    Not reentrant: nothing run inside may enter it again."""
    with _BLAS_PIN_LOCK:
        controls = _openblas_thread_controls()
        saved = [get() for get, _ in controls]
        try:
            for _, set_ in controls:
                set_(1)
            yield
        finally:
            for (_, set_), count in zip(controls, saved):
                set_(count)


def compute_field(A, grid: GridSpec) -> SpectralField:
    """Sample sigma_min/sigma_max/ratio of z*I - A at every grid node.

    Deterministic: node values depend only on (A, grid), never on the
    number of worker threads (each worker owns fixed whole rows, and BLAS
    runs single-threaded under the pool).
    """
    m = as_matrix(A)
    re = grid.re_axis()
    im = grid.im_axis()
    smin = np.empty((grid.nx, grid.ny))
    smax = np.empty((grid.nx, grid.ny))

    def fill_row(ix: int):
        smin[ix, :], smax[ix, :] = shifted_extremes(m, re[ix] + 1j * im)

    workers = _thread_count()
    with _single_threaded_blas():
        if workers == 1:
            for ix in range(grid.nx):
                fill_row(ix)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(fill_row, range(grid.nx)))

    ratio = condition_ratio(smin, smax, m.n)
    for arr in (smin, smax, ratio):
        arr.setflags(write=False)
    return SpectralField(grid, smin, smax, ratio, m)


def condition_number_at(A, z: complex) -> float:
    """kappa(z*I - A) = sigma_max/sigma_min; +inf when z is (numerically)
    an eigenvalue."""
    m = as_matrix(A)
    return float(condition_ratio(*shifted_extremes(m, z), m.n)[0])


def in_condition_spectrum(A, z: complex, eps) -> bool:
    e = eps_value(eps, KIND_CONDITION)
    return bool(condition_number_at(A, z) >= 1.0 / e)


def in_pseudospectrum(A, z: complex, eps) -> bool:
    e = eps_value(eps, KIND_PSEUDO)
    return bool(shifted_extremes(A, z)[0][0] <= e)


def bounding_region(A, eps, kind: str = KIND_CONDITION) -> float:
    """Radius R of a disk about 0 guaranteed to contain the spectrum:
    (1+eps)/(1-eps)*||A|| for the condition spectrum, ||A||+eps for the
    pseudospectrum."""
    # Auto grids are sized from this radius, so ||A|| is pinned like the
    # field: a multi-threaded SVD changes its last bits from n ~ 64 on.
    with _single_threaded_blas():
        norm = spectral_norm(A)
    e = eps_value(eps, kind)
    if kind == KIND_CONDITION:
        return (1.0 + e) / (1.0 - e) * norm
    return norm + e


# ---------------------------------------------------------------------------
# Contours (marching squares on the log-scaled field)

@dataclass(frozen=True, eq=False)
class ContourLevel:
    """All polylines of one level: the boundary approximation for one eps."""

    eps: float
    kind: str
    polylines: tuple  # of (k, 2) float arrays [[re, im], ...]

    def closed_count(self) -> int:
        return sum(1 for p in self.polylines
                   if len(p) > 2 and np.allclose(p[0], p[-1], rtol=0.0, atol=0.0))


@dataclass(frozen=True, eq=False)
class ContourSet:
    levels: tuple  # of ContourLevel

    def to_json_obj(self):
        return [
            {"eps": lv.eps, "polylines": [p.tolist() for p in lv.polylines]}
            for lv in self.levels
        ]


# Segment table for marching squares.  Corner bits: 0=(i,j), 1=(i+1,j),
# 2=(i+1,j+1), 3=(i,j+1); edges: 0 bottom, 1 right, 2 top, 3 left.
_MS_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(3, 0)],
}


def _marching_squares(xs: np.ndarray, ys: np.ndarray, values: np.ndarray,
                      level: float, poles: np.ndarray | None = None) -> list[np.ndarray]:
    """Level-set polylines of a scalar field sampled at xs x ys.

    Crossing points are computed once per grid edge (canonical node order),
    so shared edges chain exactly and the output is independent of cell
    visit order.  Saddle cells are disambiguated by the cell-center mean.

    `poles` marks nodes whose original value was infinite (clamped before
    the call).  A cell whose only above-level corners are poles is skipped:
    the underlying level set there is empty or below grid resolution (an
    isolated eigenvalue of a scalar matrix, or a spectrum component thinner
    than one cell).
    """
    s = values - level
    inside = s >= 0.0
    nx, ny = values.shape
    if poles is None:
        poles = np.zeros_like(inside)

    cross_b = inside[:-1, :] != inside[1:, :]   # edges along re (axis 0)
    cross_l = inside[:, :-1] != inside[:, 1:]   # edges along im (axis 1)

    def h_point(i, j):  # between nodes (i, j) and (i+1, j)
        t = s[i, j] / (s[i, j] - s[i + 1, j])
        return (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])

    def v_point(i, j):  # between nodes (i, j) and (i, j+1)
        t = s[i, j] / (s[i, j] - s[i, j + 1])
        return (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))

    # Cells containing any crossing.
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
            continue  # only poles poke above the level: sub-resolution set
        if case in (5, 10):
            center_in = (s[i, j] + s[i + 1, j] + s[i + 1, j + 1] + s[i, j + 1]) >= 0.0
            if case == 5:
                segs = [(0, 1), (2, 3)] if center_in else [(3, 0), (1, 2)]
            else:
                segs = [(3, 0), (1, 2)] if center_in else [(0, 1), (2, 3)]
        else:
            segs = _MS_SEGMENTS[case]
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

    # Chain segments into polylines on the edge-id graph.
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


def _log_scaled(values: np.ndarray, level: float) -> tuple[np.ndarray, float, np.ndarray]:
    """log10 transform with +-inf (and log of 0) clamped just past the
    working range so interpolation stays inside the owning cell.  Also
    returns the pole mask (nodes that were not finite before clamping)."""
    with np.errstate(divide="ignore"):
        t = np.log10(values)
    lv = float(np.log10(level))
    poles = ~np.isfinite(t)
    finite = t[~poles]
    hi = (float(finite.max()) if finite.size else lv) + 2.0
    lo = (float(finite.min()) if finite.size else lv) - 2.0
    t = np.nan_to_num(t, nan=lo, posinf=max(hi, lv + 2.0), neginf=min(lo, lv - 2.0))
    return t, lv, poles


def extract_contours(field: SpectralField, eps_list, kind: str = KIND_CONDITION) -> ContourSet:
    """Marching-squares boundary polylines at each requested eps.

    Condition kind traces ratio = 1/eps, pseudo kind sigma_min = eps, both
    on a log10 scale.  A level that never crosses inside the grid yields an
    empty polyline list for that eps (reported, not an error).
    """
    xs = field.grid.re_axis()
    ys = field.grid.im_axis()
    levels = []
    for eps in eps_list:
        e = eps_value(eps, kind)
        if kind == KIND_CONDITION:
            t, lv, poles = _log_scaled(field.ratio, 1.0 / e)
        else:
            t, lv, poles = _log_scaled(field.sigma_min, e)
        polys = _marching_squares(xs, ys, t, lv, poles)
        levels.append(ContourLevel(e, kind, tuple(polys)))
    return ContourSet(tuple(levels))


# ---------------------------------------------------------------------------
# Derived grid quantities

def _require_covering(A, eps, grid: GridSpec):
    r = bounding_region(A, eps, KIND_CONDITION)
    if not grid.contains_disk(r):
        raise GridTooSmallError(
            f"grid [{grid.re_min}, {grid.re_max}] x [{grid.im_min}, {grid.im_max}] "
            f"does not contain the bounding disk D(0, {r:.6g})")


def _field_on(A, grid) -> SpectralField:
    if isinstance(grid, SpectralField):
        return grid
    return compute_field(A, grid)


def condition_spectral_radius(A, eps, grid) -> float:
    """max |z| over grid nodes inside the condition spectrum: a resolution-
    limited lower bound of the true radius.  The grid must cover the
    bounding disk."""
    field = _field_on(A, grid)
    _require_covering(A, eps, field.grid)
    members = field.member_nodes(eps)
    if members.size == 0:
        return 0.0
    return float(np.abs(members).max())


def distance_to_condition_spectrum(A, z: complex, eps, grid) -> float:
    """Distance from z to the classified member set, accurate to one grid
    diagonal.  Eigenvalues (always members) are included as candidates, so
    the result stays meaningful when eps is too small for any node to
    classify."""
    field = _field_on(A, grid)
    _require_covering(A, eps, field.grid)
    if in_condition_spectrum(A, z, eps):
        return 0.0
    candidates = field.member_nodes(eps)
    eig = eigenvalues(A)
    cand = np.concatenate([candidates.ravel(), eig])
    return float(np.abs(cand - z).min())


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
    eig = eigenvalues(A)
    for lam in eig:
        ix = int(np.argmin(np.abs(re - lam.real)))
        iy = int(np.argmin(np.abs(im - lam.imag)))
        mask[ix, iy] = True

    from scipy import ndimage  # deferred: it dominates the import time of the CLI

    labels, count = ndimage.label(mask)
    nodes = field.grid.nodes()
    diag = field.grid.cell_diagonal()
    for c in range(1, count + 1):
        comp_nodes = nodes[labels == c]
        if np.abs(comp_nodes[None, :] - eig[:, None]).min() > diag:
            raise GridResolutionError(
                f"component {c} of {count} contains no eigenvalue within one "
                f"grid diagonal; refine the grid")
    return int(count)


# ---------------------------------------------------------------------------
# Serialization

def write_field_csv(field: SpectralField, fp) -> None:
    """CSV rows `re,im,sigma_min,sigma_max,ratio`, row-major over the grid
    (re index outer, im inner), 17 significant digits."""
    fp.write("re,im,sigma_min,sigma_max,ratio\n")
    re = field.grid.re_axis()
    im = field.grid.im_axis()
    for i in range(field.grid.nx):
        for j in range(field.grid.ny):
            fp.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                re[i], im[j], field.sigma_min[i, j], field.sigma_max[i, j],
                field.ratio[i, j]))


def read_field_csv(fp) -> SpectralField:
    """Inverse of write_field_csv (the source matrix is not recoverable)."""
    header = fp.readline().strip()
    if header != "re,im,sigma_min,sigma_max,ratio":
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
    smin = rows[:, 2].reshape(nx, ny)
    smax = rows[:, 3].reshape(nx, ny)
    ratio = rows[:, 4].reshape(nx, ny)
    return SpectralField(grid, smin, smax, ratio, None)
