"""Checks that can fail: each weakened bound must fail some report.

A check that never fails proves nothing.  For every σ/ε pair one bound is
weakened at a time, outside the program: `dataclasses.replace` on the
SpectrumKind record a check body reads, a check body called with a mutated
rule, or a module attribute of `theorems` patched for one call.  On a small
corpus the check as written passes every report, and the weakened one must
fail at least one.  With these bodies on the 59-matrix acceptance corpus
(grid 161) the mutations fail, of 177 σ / ε reports per id: 35/37 (T1),
27/64 (T2), 6 (T3σ), 171/176 (T4), 15/36 (T5), 3/11 (T6), 35/78 (T7),
70/29 (T8), 122/83 (T9) and 177/177 (T10).  Grid 61 is enough to fail some
here: J2(0) fails the T3 mutation, and the nilpotent J8(0) the T6 one.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from condspec import theorems
from condspec.errors import GridResolutionError, PreconditionError
from condspec.matrixio import generate
from condspec.numkernel import ComplexMatrix
from condspec.spectra import CONDITION, PSEUDO, grid_for

EPS = (0.05, 0.2, 0.4)
ALPHA, BETA = 0.3 + 0.1j, 1.5 * np.exp(0.7j)
CONFIG = theorems.TransientConfig(M=2.0, k_max=50)


def _corpus():
    mats = [np.diag([1.0, -1.0])]
    mats += [generate("jordan", n, value=v).entries for n in (2, 4, 8) for v in (0.0, 0.9)]
    mats += [generate("random", n, seed=seed).entries for n, seed in ((4, 1), (5, 2))]
    # Each matrix wrapped once: every check on it reads one field of the grid.
    return [(m, grid_for(m, 61, max(EPS))) for m in map(ComplexMatrix, mats)]


def _t5_target(kind):
    return (lambda kappa, e: kappa * kappa * e) if kind is CONDITION else (lambda kappa, e: kappa * e)


def _check(name, kind):
    return getattr(theorems, f"check_{name}" + ("" if kind.suffix == "σ" else "e"))


def _t1(kind, A, e, grid):
    return theorems._zero_membership_report(kind, A, e)


def _t2(kind, A, e, grid):
    return theorems._modulus_bound_report(kind, A, e, grid)


def _t4(kind, A, e, grid):
    return theorems._resolvent_bound_report(kind, A, e, grid, None, 24, 0)


def _t5(kind, A, e, grid, target=None):
    S = theorems.default_similarity(A.n)
    return theorems._similarity_report(kind, target or _t5_target(kind), A, S, e, grid,
                                       None, 24, 0)


def _t3(kind, A, e, grid):
    return theorems.check_t3(A, e, grid)


def _t3_from_n_minus_1(kind, A, e, grid):
    """T3 demanding full rank from N - 1 components, not N."""
    count = theorems.component_count
    with mock.patch.object(theorems, "component_count", lambda A, f, e: count(A, f, e) + 1):
        return _t3(kind, A, e, grid)


def _t6(kind, A, e, grid, factor=1.0):
    body = theorems._growth_report

    def scaled_threshold(kind, threshold, *rest):
        return body(kind, lambda M, e: factor * threshold(M, e), *rest)
    with mock.patch.object(theorems, "_growth_report", scaled_threshold):
        return _check("t6", kind)(A, e, CONFIG, grid)


def _t7(kind, A, e, grid):
    # check_t7/check_t7e hold the rule of admissible k, so the kind record
    # they read is the one patched in.
    with mock.patch.object(theorems, "CONDITION" if kind.suffix == "σ" else "PSEUDO", kind):
        return _check("t7", kind)(A, e, grid=grid, count=24)


def _t8(kind, A, e, grid):
    return theorems._disk_cover_report(kind, A, e, grid)


def _t9(kind, A, e, grid):
    return theorems._range_cover_report(kind, A, e, grid, 256)


def _t10(kind, A, e, grid):
    return theorems._affine_report(kind, A, ALPHA, BETA, e, None, 24, 0)


def _scaled(kind, attr, factor):
    rule = getattr(kind, attr)
    return dataclasses.replace(kind, **{attr: lambda *args: factor * rule(*args)})


def _twice_the_level(kind):
    """kind with membership at twice its level: ratio >= 2/eps, sigma_min <= 2*eps."""
    at = (lambda e: e / 2) if kind.suffix == "σ" else (lambda e: 2 * e)
    return dataclasses.replace(kind, inside=lambda q, e: kind.inside(q, at(e)))


# (body, how the bound is weakened): the weakened call takes (kind, A, e, grid).
MUTATIONS = {
    "T1 membership at twice the level": (_t1, lambda k, *a: _t1(_twice_the_level(k), *a)),
    "T2 radius x 0.8": (_t2, lambda k, *a: _t2(_scaled(k, "radius", 0.8), *a)),
    "T3 full rank from N - 1 components": (_t3, _t3_from_n_minus_1),
    "T4 pad x 0.01": (_t4, lambda k, *a: _t4(_scaled(k, "pad", 0.01), *a)),
    "T5 level without kappa(S)": (_t5, lambda k, *a: _t5(k, *a, target=lambda kappa, e: e)),
    "T6 threshold x 0.5": (_t6, lambda k, *a: _t6(k, *a, factor=0.5)),
    "T7 pad x 0.01": (_t7, lambda k, *a: _t7(_scaled(k, "pad", 0.01), *a)),
    "T8 pad x 0.01": (_t8, lambda k, *a: _t8(_scaled(k, "pad", 0.01), *a)),
    "T9 pad x 0.01": (_t9, lambda k, *a: _t9(_scaled(k, "pad", 0.01), *a)),
    "T10 degree swapped": (_t10, lambda k, *a: _t10(dataclasses.replace(k, degree=1 - k.degree), *a)),
}
# T3 has no pseudospectrum companion.
CASES = [pytest.param(name, kind, id=f"{name}-{'sigma' if kind is CONDITION else 'eps'}")
         for name in MUTATIONS for kind in (CONDITION, PSEUDO)
         if kind is CONDITION or not name.startswith("T3")]


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.mark.parametrize("mutation, kind", CASES)
def test_weakened_bound_fails_some_report(corpus, mutation, kind):
    body, weakened = MUTATIONS[mutation]
    failed = 0
    for A, grid in corpus:
        for e in EPS:
            try:
                report = body(kind, A, e, grid)
            except (PreconditionError, GridResolutionError):  # T5σ at kappa(S)^2 eps >= 1; T3σ
                continue
            assert report.passed, (report.theorem_id, e, A.n)
            failed += not weakened(kind, A, e, grid).passed
    assert failed > 0, f"{mutation} ({kind.suffix}) fails no report"
