"""Span and counter recording around condspec's public functions.

The recorder patches module attributes from outside the program: every
module-level name that refers to a wrapped function is replaced, so
re-imports (`from .spectra import compute_field` in `theorems`, `cli`, ...)
are traced too, and `uninstall` puts the originals back.  Spans (name,
start, end, parent) and counters stay in memory until the run writes them
out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("numkernel", "spectra", "geometry", "jsonio", "matrixio", "svgplot",
           "witness", "theorems", "cli")

THEOREM_IDS = ("t1", "t1e", "t2", "t2e", "t3", "t4", "t4e", "t5", "t5e", "t6", "t6e",
               "t7", "t7e", "t8", "t8e", "t9", "t9e", "t10", "t10e")

# Flop model for the field, stated rather than measured: singular values
# only of a complex n x n matrix by Householder bidiagonalization,
# 8/3 n^3 real-equivalent multiply-adds, times 4 real flops per complex
# multiply-add => 32/3 n^3 flops per grid node (Golub & Van Loan, 4th ed.,
# sec. 8.6, with the bidiagonal QR sweeps neglected).
FIELD_FLOPS_PER_NODE = 32.0 / 3.0

# (module, function) pairs whose calls become spans.
TRACED = {
    "numkernel": ("singular_values", "svd", "eigenvalues", "eigen_decomposition",
                  "power_norms", "spectral_norm", "condition_number"),
    "spectra": ("compute_field", "extract_contours", "write_field_csv", "read_field_csv",
                "condition_number_at", "in_condition_spectrum", "in_pseudospectrum",
                "bounding_region", "component_count", "condition_spectral_radius",
                "distance_to_condition_spectrum"),
    "geometry": ("convex_hull", "distance_to_polygon", "hull_depths"),
    "jsonio": ("dump", "loads"),
    "matrixio": ("parse_matrix",),
    "svgplot": ("render_svg",),
    "witness": ("witness_perturbation", "membership_from_perturbation",
                "witness_from_json_obj"),
    "theorems": tuple(f"check_{t}" for t in THEOREM_IDS)
                + ("numerical_range_boundary", "sample_points", "run_suite"),
    "cli": ("main", "cmd_compute", "cmd_verify", "cmd_plot"),
}


def _matrix_n(A) -> int:
    return int(np.shape(getattr(A, "entries", A))[0])


def _count_parse(counters, args, kwargs, result):
    source = args[0]
    if isinstance(source, (str, os.PathLike)) and os.path.isfile(source):
        counters["matrixio.bytes_in"] += os.path.getsize(source)


def _count_field(counters, args, kwargs, result):
    grid = result.grid
    nodes = grid.nx * grid.ny
    counters["spectra.field_nodes"] += nodes
    counters["spectra.field_flop_computed"] += nodes * FIELD_FLOPS_PER_NODE * _matrix_n(args[0]) ** 3


def _count_contours(counters, args, kwargs, result):
    counters["spectra.contour_vertices"] += sum(len(p) for lv in result.levels
                                                for p in lv.polylines)


def _count_csv(counters, args, kwargs, result):
    counters["spectra.csv_bytes"] += args[1].tell()


def _count_polygon_distance(counters, args, kwargs, result):
    points = np.asarray(args[0]).reshape(-1, 2)
    poly = np.asarray(args[1]).reshape(-1, 2)
    edges = 1 if len(poly) == 2 else len(poly)
    counters["geometry.polygon_distance_pairs"] += len(points) * edges


HOOKS = {
    ("matrixio", "parse_matrix"): _count_parse,
    ("spectra", "compute_field"): _count_field,
    ("spectra", "extract_contours"): _count_contours,
    ("spectra", "write_field_csv"): _count_csv,
    ("geometry", "distance_to_polygon"): _count_polygon_distance,
}


class Tracer:
    """In-memory spans and counters; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"condspec.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("condspec")
        replacements = {}
        for mod_name, names in TRACED.items():
            for fn_name in names:
                original = getattr(mods[mod_name], fn_name)
                replacements[id(original)] = (
                    original,
                    self._wrap(f"{mod_name}.{fn_name}", original,
                               HOOKS.get((mod_name, fn_name))))
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        self._patch_method(mods["numkernel"].ComplexMatrix, "__post_init__",
                           "numkernel.matrix_wraps")
        resolve = mods["cli"].RunConfig.resolve_grid
        self._patch(mods["cli"].RunConfig, "resolve_grid",
                    self._wrap("spectra.grid_sizing", resolve, None))

    def _patch_method(self, cls, attr: str, counter: str) -> None:
        original = getattr(cls, attr)
        counters, lock = self.counters, self._lock

        @functools.wraps(original)
        def counted(*args, **kwargs):
            with lock:
                counters[counter] += 1
            return original(*args, **kwargs)

        self._patch(cls, attr, counted)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derived numbers ---------------------------------------------------

    def totals(self) -> dict:
        """Inclusive seconds, self seconds and call count per span name."""
        children = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        count: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            dur = end - start
            count[name] += 1
            inclusive[name] += dur
            self_time[name] += dur - _covered(start, end,
                                              [self.spans[c] for c in children[i]])
        return {"inclusive": dict(inclusive), "self": dict(self_time), "count": dict(count)}

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fp:
            json.dump({"spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                       "counters": dict(self.counters), "totals": self.totals()}, fp)


def _covered(start: float, end: float, kids) -> float:
    """Length of [start, end] covered by the union of the child intervals."""
    total, reach = 0.0, start
    for _, s, e, _ in sorted(kids, key=lambda k: k[1]):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total
