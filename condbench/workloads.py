"""Seeded workload inputs for the condspec benchmark.

Each workload is a list of matrices plus the CLI flags one pass runs over
them.  Everything is derived from the seed, so the same seed writes the
same matrix files and drives the same calls.  The program itself only
ever sees the generated files.

Why these three:

* field-dense   -- dense n = 96/128 matrices on a coarse grid.  Nearly all
  time is the field (one O(n^3) SVD per node, with the pool's threads each
  running BLAS threads); contours, CSV and theorems are negligible.
* compute-fine  -- n = 2..8 on the fine 401^2 grid, compute then plot.  The
  same field layer, bound by per-node overhead instead of flops, plus the
  15 MB field.csv write and its re-read by plot.
* verify-corpus -- the acceptance-corpus recipe under `verify`, each call
  with a witness certificate.  The theorem suite dominates; many calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from condspec import matrixio

WORKLOADS = ("field-dense", "compute-fine", "verify-corpus")

# The certificate is checked at the first eps of the verify sweep; the
# member point is chosen where kappa(zI - A) >= CERT_MARGIN / eps, well
# inside the condition spectrum, so rounding cannot flip its membership.
CERT_MARGIN = 2.0


@dataclass(frozen=True)
class MatrixInput:
    label: str
    entries: np.ndarray
    cert_z: complex | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "compute", "compute+plot" or "verify"
    eps: tuple
    grid: int
    matrices: tuple
    samples: int = 0

    @property
    def eps_flag(self) -> str:
        return ",".join(repr(e) for e in self.eps)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def field_dense(seed: int, tiny: bool = False) -> Workload:
    rng = _rng(seed, 1)
    n_random, n_jordan, grid = (6, 8, 9) if tiny else (96, 128, 31)
    random = matrixio.generate("random", n_random, seed=_sub_seed(rng)).entries
    value = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    jordan = matrixio.generate("jordan", n_jordan, value=value).entries
    return Workload("field-dense", "compute", (0.02, 0.05, 0.1), grid,
                    (MatrixInput(f"random{n_random}", random),
                     MatrixInput(f"jordan{n_jordan}", jordan)))


def compute_fine(seed: int, tiny: bool = False) -> Workload:
    rng = _rng(seed, 2)
    grid = 21 if tiny else 401
    r = np.sqrt(rng.uniform(0.1, 1.0, size=2))
    th = rng.uniform(0.0, 2.0 * np.pi, size=2)
    diag = matrixio.generate("diag", 2, values=list(r * np.exp(1j * th))).entries
    value = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    jordan = matrixio.generate("jordan", 4, value=value).entries
    random = matrixio.generate("random", 8, seed=_sub_seed(rng)).entries
    return Workload("compute-fine", "compute+plot", (0.02, 0.05, 0.1, 0.3), grid,
                    (MatrixInput("diag2", diag), MatrixInput("jordan4", jordan),
                     MatrixInput("random8", random)))


def verify_corpus(seed: int, tiny: bool = False) -> Workload:
    """Acceptance-corpus recipe: the fixed diag/identity/zero/Jordan members
    plus seeded random matrices with n = 2..6."""
    rng = _rng(seed, 3)
    eps = (0.05, 0.2, 0.4)
    fixed = [("diag", np.diag([1.0, -1.0])), ("identity", np.eye(2)),
             ("zero", np.zeros((2, 2)))]
    for n in (2, 4, 8):
        for value in (0.0, 0.9):
            fixed.append((f"J{n}({value:g})",
                          matrixio.generate("jordan", n, value=value).entries))
    n_random = 6
    if tiny:
        fixed, n_random = fixed[:2], 1
    mats = list(fixed)
    for i in range(n_random):
        n = 2 + i % 5
        mats.append((f"random{i}(n={n})",
                     matrixio.generate("random", n, seed=_sub_seed(rng)).entries))
    inputs = tuple(MatrixInput(label, np.asarray(a, dtype=np.complex128),
                               member_point(a, eps[0], rng))
                   for label, a in mats)
    return Workload("verify-corpus", "verify", eps, 41 if tiny else 161, inputs,
                    samples=8 if tiny else 24)


def member_point(A, eps: float, rng: np.random.Generator) -> complex:
    """A point of the eps-condition spectrum near an eigenvalue, found with
    the benchmark's own dense SVD (not the library).  Falls back to the
    eigenvalue itself, which is always a member."""
    a = np.asarray(A, dtype=np.complex128)
    n = a.shape[0]
    lam = sorted(np.linalg.eigvals(a), key=lambda w: (round(w.real, 12), round(w.imag, 12)))[-1]
    direction = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    r = 0.25 * eps * max(float(np.linalg.norm(a, 2)), 1e-3)
    for _ in range(40):
        z = complex(lam + r * direction)
        s = np.linalg.svd(z * np.eye(n) - a, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] >= CERT_MARGIN / eps:
            return z
        r *= 0.5
    return complex(lam)


GENERATORS = {"field-dense": field_dense, "compute-fine": compute_fine,
              "verify-corpus": verify_corpus}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return GENERATORS[name](seed, tiny)


def write_inputs(workload: Workload, directory) -> list:
    """Write one JSON matrix file per input; return the paths in order."""
    paths = []
    for i, m in enumerate(workload.matrices):
        path = directory / f"m{i:02d}.json"
        matrixio.write_matrix(m.entries, path)
        paths.append(path)
    return paths
