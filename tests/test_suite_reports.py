"""Theorem reports against a committed fixture, compared exactly.

tests/data/suite_reports.json holds the `to_dict()` output of every case
below.  It was written by the σ/ε check bodies before they were merged into
one body per pair, and written again when mirrored grids got their
mirror-exact im axis.  T7's slack_used values were later edited in place
when T7 began reporting the largest slack it grants (each moved value is
named in CHANGES.md).  Each case
is compared for equality after a JSON round trip (floats written as their
repr, exact for float64).

Regenerate (only when a report is meant to change, naming each changed
value in CHANGES.md):

    PYTHONPATH=src python tests/test_suite_reports.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from condspec import jsonio
from condspec.matrixio import generate
from condspec.theorems import (
    check_t1,
    check_t1e,
    check_t5,
    check_t5e,
    check_t7,
    check_t7e,
    check_t10,
    check_t10e,
    run_suite,
)

FIXTURE = Path(__file__).parent / "data" / "suite_reports.json"

SUITE_MATRICES = {
    "diag(1,-1)": np.diag([1.0, -1.0]),
    "zero2": np.zeros((2, 2)),
    "1x1": np.array([[1.5 - 0.5j]]),
    "J4(0.9)": generate("jordan", 4, value=0.9).entries,
    "random5": generate("random", 5, seed=77).entries,
}
SINGULAR = np.array([[1.0, 2.0], [0.5, 1.0]])
S_FULL = np.array([[1.0, 0.3], [0.1, 1.0]])


def _cases() -> dict:
    """Case name -> zero-argument callable returning a list of reports."""
    cases = {f"suite {name}": (lambda A=A: run_suite(A, (0.05, 0.3), grid=61, samples=16, seed=5))
             for name, A in SUITE_MATRICES.items()}
    rnd3 = generate("random", 3, seed=78).entries
    j4 = SUITE_MATRICES["J4(0.9)"]
    cases.update({
        "t5 non-diagonal S": lambda: [check_t5(SINGULAR + np.eye(2), S_FULL, 0.05, count=16, seed=2),
                                      check_t5e(SINGULAR + np.eye(2), S_FULL, 0.05, count=16, seed=2)],
        "t7 explicit k_list": lambda: [check_t7(j4, 0.05, k_list=[0, 1, 3], grid=61, count=16, seed=3),
                                       check_t7e(rnd3, 0.3, k_list=[1, 2, 4], grid=61, count=16, seed=3)],
        "t10 beta=0": lambda: [check_t10(rnd3, 0.5 + 0.25j, 0, 0.2, seed=4),
                               check_t10e(rnd3, 0.5 + 0.25j, 0, 0.2, seed=4)],
        "t1 singular": lambda: [check_t1(SINGULAR, 0.2), check_t1e(SINGULAR, 0.2)],
    })
    return cases


def _as_json(reports) -> list:
    return json.loads(jsonio.dumps([r.to_dict() for r in reports]))


@pytest.fixture(scope="module")
def fixture_reports() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", list(_cases()))
def test_reports_match_fixture(fixture_reports, case):
    assert case in fixture_reports, f"{case!r} missing from {FIXTURE.name}"
    got = _as_json(_cases()[case]())
    want = fixture_reports[case]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"{case}: {w['theorem_id']} changed"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    out = {name: _as_json(run()) for name, run in _cases().items()}
    FIXTURE.write_text(jsonio.dumps(out))
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)", file=sys.stderr)
