"""Machine-readable pass/fail record for one theorem or consistency check."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one check.

    lhs/rhs summarize the two sides of the verified statement numerically
    (None when the check is vacuous or boolean).  slack_used is the total
    grid/floating tolerance the comparison was given.  details carries
    free-form diagnostics; re-running with identical inputs reproduces the
    report bit for bit.
    """

    theorem_id: str
    passed: bool
    lhs: float | None = None
    rhs: float | None = None
    slack_used: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "passed": bool(self.passed),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack_used": self.slack_used,
            "details": dict(self.details),
        }

    @property
    def skipped(self) -> bool:
        return str(self.details.get("status", "")).startswith("skipped")

    @property
    def vacuous(self) -> bool:
        return str(self.details.get("status", "")).startswith("vacuous")
