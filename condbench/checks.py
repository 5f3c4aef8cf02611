"""Output checks: file hashes, a dense-SVD oracle for field nodes, and the
pass/vacuous/skipped/failed counts of a verify report."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# A sampled node misses when sigma_min or sigma_max differs from the oracle
# by more than ORACLE_TOL * sigma_max at that node: a backward-stable SVD
# determines every singular value only to that absolute accuracy.
ORACLE_TOL = 1e-10
ORACLE_SAMPLES = 32

FIELD_HEADER = "re,im,sigma_min,sigma_max,ratio"


def hash_outputs(directory: Path) -> dict:
    """sha256 of every file under `directory`, keyed by relative path."""
    out = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fp:
            for block in iter(lambda: fp.read(1 << 20), b""):
                h.update(block)
        out[path.relative_to(directory).as_posix()] = h.hexdigest()
    return out


def hash_mismatches(reference: dict, other: dict) -> list:
    """Relative paths whose bytes differ, or that only one side has."""
    return sorted(k for k in set(reference) | set(other) if reference.get(k) != other.get(k))


def oracle_misses(field_csv: Path, A, grid_nodes: int, seed: int) -> tuple:
    """(misses, problems) for ORACLE_SAMPLES seeded rows of a field CSV.

    `problems` lists structural faults (header, row count, unparsable row);
    each counts as a miss too.
    """
    a = np.asarray(A, dtype=np.complex128)
    n = a.shape[0]
    lines = Path(field_csv).read_text().splitlines()
    problems = []
    if not lines or lines[0] != FIELD_HEADER:
        problems.append(f"{field_csv.name}: bad header")
        return len(problems), problems
    rows = lines[1:]
    if len(rows) != grid_nodes * grid_nodes:
        problems.append(f"{field_csv.name}: {len(rows)} rows, expected {grid_nodes ** 2}")
        return len(problems), problems
    rng = np.random.default_rng([int(seed), 7])
    misses = 0
    for i in rng.choice(len(rows), size=min(ORACLE_SAMPLES, len(rows)), replace=False):
        try:
            re, im, smin, smax, _ratio = (float(t) for t in rows[i].split(","))
        except ValueError:
            problems.append(f"{field_csv.name}: row {i + 1} unparsable")
            misses += 1
            continue
        s = np.linalg.svd(complex(re, im) * np.eye(n) - a, compute_uv=False)
        tol = ORACLE_TOL * s[0]
        if abs(s[-1] - smin) > tol or abs(s[0] - smax) > tol:
            misses += 1
            problems.append(f"{field_csv.name}: node {re}+{im}i oracle "
                            f"({s[-1]!r}, {s[0]!r}) vs ({smin!r}, {smax!r})")
    return misses, problems


def report_counts(report_json: Path) -> dict:
    """Counts of passed-on-substance, vacuous, skipped and failed checks,
    plus whether a certificate check was present and accepted."""
    reports = json.loads(Path(report_json).read_text())
    counts = {"passed": 0, "vacuous": 0, "skipped": 0, "failed": 0, "cert_ok": False}
    for r in reports:
        status = str(r.get("details", {}).get("status", ""))
        if r["theorem_id"] == "CERT":
            counts["cert_ok"] = bool(r["passed"])
        if not r["passed"]:
            counts["failed"] += 1
        elif status.startswith("skipped"):
            counts["skipped"] += 1
        elif status.startswith("vacuous"):
            counts["vacuous"] += 1
        else:
            counts["passed"] += 1
    return counts
