"""Condition-spectrum and pseudospectrum membership, grid fields, contours.

A point z belongs to the eps-condition spectrum of A when z*I - A is
singular or its condition number sigma_max/sigma_min reaches 1/eps (with
0 < eps < 1).  It belongs to the eps-pseudospectrum when
sigma_min(z*I - A) <= eps, i.e. the resolvent norm reaches 1/eps.  One
SpectrumKind record per kind (CONDITION, PSEUDO) holds every rule that
differs between the two: the eps range, the compared quantity and its
level, the boundary band, the bounding radius and the pad the theorems
share.  Functions that take a kind take the record; kind names are text
read or written at the edges (file names, ContourLevel.kind, labels).

Grid computation samples sigma_min, sigma_max and their ratio over a
rectangle of the complex plane; classification, contour extraction,
radii, distances and component counts are all derived from that field.
Its nodes reach numkernel.shifted_extremes through one evaluator,
SpectralField._evaluate, and numkernel owns the thread pool and the
OpenBLAS pin, so fields and auto grids are bit-identical at any
CONDSPEC_THREADS and OPENBLAS_NUM_THREADS.  compute_field evaluates every
node in one call.  The field field_for keeps among its ComplexMatrix's
facts (it holds its own copy of A, not the matrix) evaluates a coarse lattice
first; by Weyl's inequality each lattice cell then bounds the values at
its other nodes, and a membership or band query evaluates, in one call,
only the nodes whose bounds hold one of its levels.  Its answers are the
fully evaluated field's, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import GridResolutionError, GridTooSmallError
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

# Default node count per axis and margin factor for auto-sized grids.
DEFAULT_GRID_NODES = 161
GRID_MARGIN = 1.1

# Relative half-width of the band around the membership level (ratio =
# 1/eps, sigma_min = eps) that set-inclusion and equivalence checks leave
# out: membership there is decided by rounding.
BOUNDARY_BAND = 1e-9

# Relative slack for comparisons that are exact in exact arithmetic.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class SpectrumKind:
    """Everything that differs between the eps-condition spectrum and the
    eps-pseudospectrum.  CONDITION and PSEUDO are the only instances.

    Membership compares one quantity of z*I - A, picked from (sigma_min,
    ratio), with a level set by eps.  Reports are compared bit for bit, so
    each callable fixes its operation order: the pad is scale * 2.0 * eps
    / (1 - eps) * ||A|| left to right, not scale times the pad.  At eps = 0
    (both spectra are the eigenvalues) each callable taking eps gives its limit.
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
    pad: Callable        # (eps, ||A||, scale=1.0) -> scale times the pad of T4, T7-T9

    def eps(self, eps: float) -> float:
        """eps as a float, checked for this kind: finite, > 0 and below eps_limit."""
        v = float(eps)
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"eps must be finite and > 0, got {eps!r}")
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
    name="condition", suffix="σ", eps_limit=1.0, degree=0, poles=True,
    quantity=lambda smin, ratio: ratio,
    measure=lambda smin, ratio: ratio,
    level=lambda e, scale=1.0: scale / e if e else np.inf,
    inside=lambda ratio, e: ratio >= (1.0 / e if e else np.inf),
    off_level=lambda ratio, e: (abs(ratio * e - 1.0) if e
                                else np.where(ratio == np.inf, np.inf, 1.0)),
    depth=lambda ratio, e: ratio * e if e else np.where(ratio == np.inf, np.inf, 0.0),
    radius=lambda e, norm: (1.0 + e) / (1.0 - e) * norm,
    pad=lambda e, norm, scale=1.0: scale * 2.0 * e / (1.0 - e) * norm,
)

PSEUDO = SpectrumKind(
    name="pseudo", suffix="ε", eps_limit=np.inf, degree=1, poles=False,
    quantity=lambda smin, ratio: smin,
    measure=lambda smin, ratio: 1.0 / smin,
    level=lambda e, scale=1.0: scale * e,
    inside=lambda smin, e: smin <= e,
    off_level=lambda smin, e: (abs(_quiet_divide(smin, e) - 1.0) if e
                               else np.where(smin > 0, np.inf, 1.0)),
    depth=lambda smin, e: np.where(smin > 0, _quiet_divide(e, smin), np.inf),
    radius=lambda e, norm: norm + e,
    pad=lambda e, norm, scale=1.0: scale * e,
)


def _quiet_divide(a, b):
    """a / b with no RuntimeWarning where it overflows or b is 0 (+-inf, nan for 0/0)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return a / b


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
    def square(cls, radius: float, n: int) -> "GridSpec":
        r = float(radius)
        return cls(-r, r, -r, r, n, n)

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


# Every LATTICE_STEP-th node on each axis, and the last, is evaluated
# before a membership query decides any other node from its lattice cell.
LATTICE_STEP = 4


def node_rounding(sigma_max_bound):
    """How far a computed singular value of z*I - A may lie from the exact
    one, given an upper bound on sigma_max(z*I - A).  A backward-stable SVD
    errs by at most p(n)*u*||z*I - A|| (LAPACK Users' Guide, 3rd ed., 4.9)
    and forming z*I - A in floating point adds at most about 2u times the
    same norm; the relative 1e-10 is far above both for any n this package
    handles (n*u is 2.2e-14 at n = 200).  The absolute term covers results
    near underflow, whose rounding is absolute."""
    return 1e-10 * sigma_max_bound + 1e-300


class SpectralField:
    """Per-node sigma_min, sigma_max of z*I - A and their ratio.

    Arrays are (nx, ny), indexed [re, im]; ratio is +inf where z*I - A is
    numerically singular.  A field holds given node values (read_field_csv,
    a field made by hand), or A's entries and a grid (SpectralField.of),
    whose nodes it evaluates as they are read: a membership or band query
    evaluates only the nodes that certified bounds leave undecided, and
    reading sigma_min, sigma_max, ratio or quantity() evaluates every node
    left, in one call.  Either way each answer is the fully evaluated
    field's, bit for bit.  Member masks, member nodes and band nodes are
    built once per (eps, kind) and instance, and are read-only.
    """

    def __init__(self, grid: GridSpec, sigma_min, sigma_max, ratio):
        """A field of given node values: nothing is left to evaluate."""
        self.grid = grid
        self._matrix = None  # a private copy of A, on a field that evaluates its nodes
        # (sigma_min, sigma_max, which nodes are known, nodes evaluated), replaced whole.
        self._state = (sigma_min, sigma_max, np.ones(np.shape(sigma_min), bool), 0)
        self._facts = {"ratio": ratio}

    @classmethod
    def of(cls, A, grid: GridSpec) -> "SpectralField":
        """A's field on grid, no node evaluated yet.  It holds its own
        ComplexMatrix of A's entries, wrapped once here, not the caller's
        matrix, so kept among that matrix's facts it does not outlive it."""
        field = cls.__new__(cls)
        entries = A.entries if isinstance(A, ComplexMatrix) else A
        field.grid, field._matrix, field._facts = grid, ComplexMatrix(entries), {}
        unknown = np.full((grid.nx, grid.ny), np.nan)
        field._state = (unknown, unknown, np.zeros(unknown.shape, bool), 0)
        return field

    @property
    def sigma_min(self) -> np.ndarray:
        return self._evaluate(True)[0]

    @property
    def sigma_max(self) -> np.ndarray:
        return self._evaluate(True)[1]

    @property
    def ratio(self) -> np.ndarray:
        return _memo(self._facts, "ratio", lambda: _read_only(
            condition_ratio(*self._evaluate(True)[:2], self._matrix.n)))

    @property
    def nodes_evaluated(self) -> int:
        """The nodes this field has handed to shifted_extremes; a node
        filled from its mirror node is not counted."""
        return self._state[3]

    def quantity(self, kind: SpectrumKind) -> np.ndarray:
        """The kind's compared quantity at every node."""
        return kind.quantity(self.sigma_min, self.ratio)

    def member_mask(self, eps: float, kind: SpectrumKind = CONDITION) -> np.ndarray:
        """Membership at every node (condition spectrum by default)."""
        return self._classes(kind.eps(eps), kind)[0]

    def member_nodes(self, eps: float, kind: SpectrumKind = CONDITION) -> np.ndarray:
        """Member nodes, in grid order."""
        return self._classes(kind.eps(eps), kind)[1]

    def band_nodes(self, eps: float, kind: SpectrumKind = CONDITION) -> np.ndarray:
        """Nodes whose quantity lies within a factor 2 of the membership
        level, in grid order."""
        return self._classes(kind.eps(eps), kind)[2]

    def _classes(self, e: float, kind: SpectrumKind) -> tuple[np.ndarray, ...]:
        """(member mask, member nodes, band nodes) at eps e, all from one _decided."""
        def make():
            q, nodes = self._decided(e, kind), self.grid.nodes()
            inside = kind.inside(q, e)
            band = (q >= kind.level(e, 0.5)) & (q <= kind.level(e, 2.0))
            return tuple(map(_read_only, (inside, nodes[inside], nodes[band])))
        return _memo(self._facts, ("classes", e, kind.name), make)

    def _decided(self, e: float, kind: SpectrumKind) -> np.ndarray:
        """The kind's quantity at every evaluated node, and at every other
        node the low end of its certified bounds.  The nodes whose bounds
        hold one of the levels 0.5L, L and 2L (L the kind's level at e) are
        evaluated first, in one call, so every node left compares with those
        levels as its quantity would, and the membership and band tests give
        the fully evaluated field's answers."""
        if self._state[2].all():
            return self.quantity(kind)
        lower, upper = self._bounds()
        lo, hi = kind.quantity(*lower), kind.quantity(*upper)
        levels = (kind.level(e, 0.5), kind.level(e), kind.level(e, 2.0))
        # A nan bound holds every level: each comparison with nan is false.
        smin, smax, known, _ = self._evaluate(np.any([~((hi < v) | (lo > v)) for v in levels], 0))
        ratio = condition_ratio(smin, smax, self._matrix.n)
        return np.where(known, kind.quantity(smin, ratio), lo)

    def _bounds(self) -> tuple[tuple, tuple]:
        """Bounds on what evaluating each node would give, ((sigma_min, ratio)
        below, (sigma_min, ratio) above), from the lattice nodes, which are
        evaluated first.

        By Weyl's inequality sigma_min and sigma_max of z*I - A are
        1-Lipschitz in z, so the value at each corner c of the lattice cell
        holding z bounds z's value within |z - c|, widened by node_rounding
        of an upper bound on sigma_max over the cell for the rounding at z
        and at c.  condition_ratio rounds monotonically in each argument, so
        the ratio bounds are its values at the ends of the sigma bounds.
        The corners are visited once each, in one order, into running bounds
        built in place; max and min are exact, so the bounds are those of the
        four corners taken together, bit for bit."""
        def make():
            grid = self.grid
            (lx, ax, bx), (ly, ay, by) = _lattice_cells(grid.nx), _lattice_cells(grid.ny)
            on_lattice = np.zeros((grid.nx, grid.ny), bool)
            on_lattice[np.ix_(lx, ly)] = True
            smin, smax = self._evaluate(on_lattice)[:2]
            re, im = grid.re_axis(), grid.im_axis()
            # Running over the corners in one order: the largest sigma_max,
            # then (low, high) bounds on sigma_min and on sigma_max.
            top, lo_min, lo_max = (np.full((grid.nx, grid.ny), -np.inf) for _ in range(3))
            hi_min, hi_max = (np.full((grid.nx, grid.ny), np.inf) for _ in range(2))
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                for i, j in itertools.product((ax, bx), (ay, by)):
                    d = np.hypot((re - re[i])[:, None], (im - im[j])[None, :])
                    for v, lo, hi in ((smin, lo_min, hi_min), (smax, lo_max, hi_max)):
                        at = v[np.ix_(i, j)]
                        if v is smax:
                            np.maximum(top, at, out=top)
                        np.maximum(lo, at - d, out=lo)
                        np.minimum(hi, np.add(at, d, out=at), out=hi)
                top += np.hypot((re[bx] - re[ax])[:, None], (im[by] - im[ay])[None, :])
                margin = node_rounding(top)
                for lo in (lo_min, lo_max):
                    np.fmax(np.subtract(lo, margin, out=lo), 0.0, out=lo)
                for hi in (hi_min, hi_max):
                    np.fmin(np.add(hi, margin, out=hi), np.inf, out=hi)
            # Each ratio bound goes into the sigma_max buffer it divides.
            for s_max, s_min in ((lo_max, hi_min), (hi_max, lo_min)):
                condition_ratio(s_min, s_max, self._matrix.n, out=s_max)
            return (lo_min, lo_max), (hi_min, hi_max)
        return _memo(self._facts, "bounds", make)

    def _evaluate(self, want) -> tuple:
        """Evaluate the nodes marked in `want` (True: all) that are not yet
        known, in one shifted_extremes call, and return the state holding
        them.  This is the one way grid nodes reach shifted_extremes.

        For a real A, conj(z)*I - A is the complex conjugate of z*I - A and
        has the same singular values; with LAPACK's sign-symmetric complex
        arithmetic they are the same bits.  So on a mirrored grid a node
        below the real axis is evaluated as its mirror node above it, and
        the value fills both.  The state is replaced, never written into,
        so a thread reading it meanwhile sees whole values."""
        smin, smax, known, count = state = self._state
        if known.all():
            return state
        ny = self.grid.ny
        half = ny // 2 if self.grid.mirrored and not self._matrix.entries.imag.any() else 0
        # The columns below the real axis, filled from their mirror columns.
        below, mirrors = np.s_[:, :half], np.s_[:, ny - 1:ny - 1 - half:-1]
        want = np.broadcast_to(want, known.shape)
        todo = (want | want[:, ::-1] if half else want) & ~known
        todo[below] = False
        if not todo.any():
            return state
        values = shifted_extremes(self._matrix, self.grid.nodes()[todo])
        smin, smax, known = np.array(smin), np.array(smax), known | todo
        smin[todo], smax[todo] = values
        for a in (smin, smax, known):
            a[below] = a[mirrors]
        if known.all():
            _read_only(smin), _read_only(smax)
        self._state = state = (smin, smax, known, count + values[0].size)
        return state


def _lattice_cells(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of an axis of count nodes: the lattice indices, and for each node the
    lattice indices a <= node <= b of the lattice cell holding it."""
    lattice = np.unique(np.append(np.arange(0, count, LATTICE_STEP), count - 1))
    k = np.minimum(np.searchsorted(lattice, np.arange(count), "right") - 1, lattice.size - 2)
    return lattice, lattice[k], lattice[k + 1]


def compute_field(A, grid: GridSpec) -> SpectralField:
    """A's field on grid with every node evaluated, in one shifted_extremes
    call: node values depend only on (A, grid)."""
    field = SpectralField.of(A, grid)
    field._evaluate(True)
    return field


def condition_number_at(A, z: complex) -> float:
    """kappa(z*I - A) = sigma_max/sigma_min; +inf when z is (numerically)
    an eigenvalue."""
    return float(CONDITION.at(A, z)[1][0])


def in_spectrum(A, z: complex, eps: float, kind: SpectrumKind = CONDITION) -> bool:
    """Whether z belongs to the eps-spectrum of A of the given kind."""
    e = kind.eps(eps)
    return bool(kind.inside(kind.at(A, z)[1][0], e))


def in_condition_spectrum(A, z: complex, eps) -> bool:
    return in_spectrum(A, z, eps, CONDITION)


def in_pseudospectrum(A, z: complex, eps) -> bool:
    return in_spectrum(A, z, eps, PSEUDO)


def auto_grid(A, eps_max: float, n: int = DEFAULT_GRID_NODES,
              kind: SpectrumKind = CONDITION) -> GridSpec:
    """The auto grid up to eps_max: the square 10% wider than the condition
    spectrum's bounding disk at min(eps_max, 0.9) (that disk grows without
    bound as eps -> 1) and, for any other kind, also holding that kind's
    disk at eps_max; its half-width is at least 0.5, so A = 0 gets a grid too."""
    radius = bounding_region(A, min(float(eps_max), 0.9))
    if kind != CONDITION:
        radius = max(radius, bounding_region(A, eps_max, kind))
    return GridSpec.square(max(GRID_MARGIN * radius, 0.5), n)


def bounding_region(A, eps: float, kind: SpectrumKind = CONDITION) -> float:
    """Radius R of a disk about 0 guaranteed to contain the spectrum:
    (1+eps)/(1-eps)*||A|| for the condition spectrum, ||A||+eps for the
    pseudospectrum."""
    return kind.radius(kind.eps(eps), spectral_norm(A))


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

    @classmethod
    def from_json_obj(cls, obj, kind: SpectrumKind) -> "ContourSet":
        """Inverse of to_json_obj for levels of `kind`: ValueError unless obj is a list of
        {"eps": a number in the kind's range, "polylines": lists of finite [re, im] pairs}."""
        if not isinstance(obj, list):
            raise ValueError("contour JSON must be a list of levels")
        levels = []
        for level in obj:
            if not (isinstance(level, dict) and isinstance(level.get("polylines"), list)
                    and type(level.get("eps")) in (int, float)):  # bool is not a number here
                raise ValueError("each contour level must be an object with "
                                 "a numeric 'eps' and a 'polylines' list")
            try:
                float(level["eps"])  # OverflowError for an int past float64
                polys = tuple(np.asarray(p, dtype=np.float64).reshape(-1, 2)
                              for p in level["polylines"])
                if any(len(q) != len(p) for q, p in zip(polys, level["polylines"])):
                    raise ValueError  # not one [re, im] row per point: flat or nested deeper
            except OverflowError:
                raise ValueError("a number is beyond the float64 range") from None
            except (TypeError, ValueError):
                raise ValueError("polylines must be lists of [re, im] pairs") from None
            if not all(np.isfinite(p).all() for p in polys):
                raise ValueError("every [re, im] point must be finite")
            levels.append(ContourLevel(kind.eps(level["eps"]), kind.name, polys))
        return cls(tuple(levels))


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


def extract_contours(field: SpectralField, eps_list, kind: SpectrumKind = CONDITION) -> ContourSet:
    """Marching-squares boundary polylines at each requested eps.

    Condition kind traces ratio = 1/eps, pseudo kind sigma_min = eps, both
    on a log10 scale.  The log is taken once per kind; for each level the
    non-finite nodes (the poles, and log of 0) are clamped just past the
    working range, so interpolation stays inside the owning cell.  A level
    that never crosses inside the grid yields an empty polyline list for
    that eps (reported, not an error).
    """
    xs = field.grid.re_axis()
    ys = field.grid.im_axis()
    with np.errstate(divide="ignore"):
        logs = np.log10(field.quantity(kind))
    poles = ~np.isfinite(logs)
    finite = logs[~poles]
    bounds = (float(finite.min()), float(finite.max())) if finite.size else None
    levels = []
    for eps in eps_list:
        e = kind.eps(eps)
        lv = float(np.log10(kind.level(e)))
        lo, hi = bounds or (lv, lv)
        lo, hi = lo - 2.0, hi + 2.0
        t = np.nan_to_num(logs, nan=lo, posinf=max(hi, lv + 2.0), neginf=min(lo, lv - 2.0))
        polys = _marching_squares(xs, ys, t, lv, poles)
        levels.append(ContourLevel(e, kind.name, tuple(polys)))
    return ContourSet(tuple(levels))


# ---------------------------------------------------------------------------
# Derived grid quantities

def _require_covering(A, eps, grid: GridSpec):
    r = bounding_region(A, eps)
    if not grid.contains_disk(r):
        raise GridTooSmallError(
            f"grid [{grid.re_min}, {grid.re_max}] x [{grid.im_min}, {grid.im_max}] "
            f"does not contain the bounding disk D(0, {r:.6g})")


def grid_for(A, grid, eps) -> GridSpec:
    """`grid` when it is a GridSpec, else the auto_grid up to eps of `grid`
    nodes per axis (None: the default) holding both spectra."""
    if grid is None or isinstance(grid, int):
        return auto_grid(A, eps, DEFAULT_GRID_NODES if grid is None else grid, PSEUDO)
    if not isinstance(grid, GridSpec):
        raise TypeError(f"grid must be None, an int or a GridSpec, got {type(grid).__name__}")
    return grid


def field_for(A, grid, eps) -> SpectralField:
    """The field of A on grid_for(A, grid, eps), whose nodes are evaluated
    as its queries need them.  The ComplexMatrix keeps one field, replaced
    when another grid is asked for, told apart by the grid's bits: GridSpec
    equality takes -0.0 for 0.0."""
    grid = grid_for(m := as_matrix(A), grid, eps)
    key = np.array([grid.re_min, grid.re_max, grid.im_min, grid.im_max, grid.nx, grid.ny],
                   float).tobytes()
    held = m._facts.get("field")
    if held is None or held[0] != key:
        held = m._facts["field"] = (key, SpectralField.of(m, grid))
    return held[1]


def member_radius(field: SpectralField, eps: float, kind: SpectrumKind = CONDITION) -> float:
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


def member_distances(A, field: SpectralField, eps: float, zs,
                     kind: SpectrumKind = CONDITION) -> np.ndarray:
    """min |c - z| for each z in zs over the candidates c: the member nodes
    of field, then the eigenvalues of A.  Eigenvalues are members at every
    eps, so the distance stays meaningful when no node classifies."""
    from .geometry import distance_to_disks

    candidates = np.concatenate([field.member_nodes(eps, kind).ravel(), as_matrix(A).eigvals])
    return distance_to_disks(np.asarray(zs, np.complex128), candidates)


def distance_to_condition_spectrum(A, z: complex, eps, grid) -> float:
    """Distance from z to the classified member set, accurate to one grid
    diagonal."""
    field = field_for(A, grid, eps)
    _require_covering(A, eps, field.grid)
    if in_spectrum(A, z, eps):
        return 0.0
    return float(member_distances(A, field, eps, [z])[0])


def component_count(A, field: SpectralField, eps) -> int:
    """Number of 4-connected components of the classified node set.

    The node nearest each eigenvalue is always included (eigenvalues belong
    to the spectrum at every eps), so the count is >= 1 even when the true
    components are below grid resolution.  Each component must hold an
    eigenvalue within one grid diagonal, else the grid is too coarse to
    trust and GridResolutionError is raised.
    """
    from .geometry import distance_to_disks

    _require_covering(A, eps, field.grid)
    mask = np.array(field.member_mask(eps))

    re = field.grid.re_axis()
    im = field.grid.im_axis()
    eig = as_matrix(A).eigvals
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
    """Inverse of write_field_csv: read_field_grid's rule over the rows in
    file order, then np.loadtxt over their value columns."""
    _read_field_header(fp)
    lines = fp.readlines()
    grid = _grid_in_order(lines)
    values = np.loadtxt(lines, delimiter=",", usecols=(2, 3, 4), ndmin=2)
    return SpectralField(grid, *map(_read_only, values.T.reshape(3, grid.nx, grid.ny)))


def read_field_grid(fp) -> GridSpec:
    """The grid of a field CSV by the format's one rule, never parsing node
    values: rows of 5 fields in write_field_csv's order, re blocks ascending,
    each holding the first block's ascending im tokens, finite axis values,
    at least 2 per axis.  The rows are streamed in one pass, one re block at
    a time, so fp may be a pipe.  ValueError names the first data row that
    breaks the rule; a file in any other row order is rejected."""
    _read_field_header(fp)
    return _grid_in_order(fp)


def _read_field_header(fp) -> None:
    if (header := fp.readline().strip()) != _FIELD_CSV_HEADER:
        raise ValueError(f"unexpected field CSV header: {header!r}")


def _grid_in_order(lines) -> GridSpec:
    """The grid of field CSV data lines in write_field_csv's order, read
    one re block at a time.  A row that breaks it raises ValueError naming
    its data row, whose number is found only then."""
    rows = map(str.split, lines, itertools.repeat(","))
    re_tokens, im_tokens = [], None
    for re_token, block in itertools.groupby(rows, operator.itemgetter(0)):
        tokens = [f[1] if len(f) == 5 else f"<{len(f)} fields>" for f in block]
        if im_tokens is None:
            im_tokens, im = tokens, _axis(tokens, "im")
        if tokens != im_tokens:
            ny = len(im_tokens)
            _axis(re_tokens + [re_token], "re", ny)  # a re fault comes first
            j = next(j for j in range(len(tokens) + 1) if tokens[j:j + 1] != im_tokens[j:j + 1])
            raise ValueError(f"field CSV data row {len(re_tokens) * ny + j + 1}: the block "
                             f"of re {re_token} holds im {tokens[j:j + 1]} where the first "
                             f"block holds {im_tokens[j:j + 1]}")
        re_tokens.append(re_token)
    if im_tokens is None:
        raise ValueError("field CSV has no data rows")
    re = _axis(re_tokens, "re", len(im))
    return GridSpec(float(re[0]), float(re[-1]), float(im[0]), float(im[-1]), len(re), len(im))


def _axis(tokens: list, name: str, stride: int = 1) -> np.ndarray:
    """Floats of axis tokens (for decimal text, the bits of np.loadtxt), each
    finite and above the one before it, else ValueError naming data row
    k * stride + 1 for the first token k that is not."""
    values = []
    for k, token in enumerate(tokens):
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or values and value <= values[-1]:
            raise ValueError(f"field CSV data row {k * stride + 1}: {name} {token!r} is not a "
                             f"finite number above the {name} before it")
        values.append(value)
    return np.array(values)
