"""Checks that can fail: each weakened bound must fail some report.

A check that never fails proves nothing.  For T2, T4, T5 and T10 one bound
is weakened at a time, outside the program: `dataclasses.replace` on the
SpectrumKind record a check body reads, or a check body called with a
mutated rule.  On a small corpus the check as written passes every report,
and the weakened one must fail at least one.  On the 59-matrix acceptance
corpus (grid 161) these mutations fail 27/64 (T2), 171/177 (T4), 23 (T5σ)
and 177/177 (T10) of 177 reports per id; grid 61 is enough to fail some here.
"""

import dataclasses

import numpy as np
import pytest

from condspec import theorems
from condspec.errors import PreconditionError
from condspec.matrixio import generate
from condspec.spectra import CONDITION, PSEUDO, field_for

EPS = (0.05, 0.2, 0.4)
ALPHA, BETA = 0.3 + 0.1j, 1.5 * np.exp(0.7j)


def _corpus():
    mats = [np.diag([1.0, -1.0])]
    mats += [generate("jordan", n, value=v).entries for n in (2, 4, 8) for v in (0.0, 0.9)]
    mats += [generate("random", n, seed=seed).entries for n, seed in ((4, 1), (5, 2))]
    return [(A, field_for(A, 61, max(EPS))) for A in mats]


def _t5_target(kind):
    return (lambda kappa, e: kappa * kappa * e) if kind is CONDITION else (lambda kappa, e: kappa * e)


def _t2(kind, A, e, field):
    return theorems._modulus_bound_report(kind, A, e, field)


def _t4(kind, A, e, field):
    return theorems._resolvent_bound_report(kind, A, e, field, None, 24, 0)


def _t5(kind, A, e, field, target=None):
    S = theorems.default_similarity(A.shape[0])
    return theorems._similarity_report(kind, target or _t5_target(kind), A, S, e, field,
                                       None, 24, 0)


def _t10(kind, A, e, field):
    return theorems._affine_report(kind, A, ALPHA, BETA, e, None, 24, 0)


def _scaled(kind, attr, factor):
    rule = getattr(kind, attr)
    return dataclasses.replace(kind, **{attr: lambda *args: factor * rule(*args)})


# (body, how the bound is weakened): the weakened call takes (kind, A, e, field).
MUTATIONS = {
    "T2 radius x 0.8": (_t2, lambda k, *a: _t2(_scaled(k, "radius", 0.8), *a)),
    "T4 pad x 0.01": (_t4, lambda k, *a: _t4(_scaled(k, "pad", 0.01), *a)),
    "T5 level without kappa(S)": (_t5, lambda k, *a: _t5(k, *a, target=lambda kappa, e: e)),
    "T10 degree swapped": (_t10, lambda k, *a: _t10(dataclasses.replace(k, degree=1 - k.degree), *a)),
}


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.mark.parametrize("kind", [CONDITION, PSEUDO], ids=["sigma", "eps"])
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_weakened_bound_fails_some_report(corpus, mutation, kind):
    body, weakened = MUTATIONS[mutation]
    failed = 0
    for A, field in corpus:
        for e in EPS:
            try:
                report = body(kind, A, e, field)
            except PreconditionError:  # T5σ where kappa(S)^2 * eps >= 1
                continue
            assert report.passed, (report.theorem_id, e, A.shape)
            failed += not weakened(kind, A, e, field).passed
    assert failed > 0, f"{mutation} ({kind.suffix}) fails no report"
