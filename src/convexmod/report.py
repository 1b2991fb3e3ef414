"""LawReport: the uniform outcome record of every law / diagram check.

A report either passes or carries a counterexample with both evaluated
sides, so a failure is always replayable by hand.  The ``mode`` field
records how the verdict was reached (full enumeration, bounded
enumeration, seeded random trials, or certified by a theorem with a
witness constructor available for spot checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import ConvexmodError

PASS = "pass"
FAIL = "fail"

MODE_EXHAUSTIVE = "exhaustive"
MODE_BOUNDED = "bounded"
MODE_RANDOMIZED = "randomized"
MODE_BY_THEOREM = "by_theorem"


@dataclass(frozen=True)
class LawReport:
    name: str
    semiring: str
    status: str                      # PASS or FAIL
    mode: str
    detail: str = ""
    # On failure: the offending inputs plus both fully evaluated sides.
    counterexample: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "law": self.name,
            "semiring": self.semiring,
            "status": self.status,
            "mode": self.mode,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = {
                k: _plain(v) for k, v in self.counterexample.items()
            }
        if self.meta:
            out["meta"] = {k: _plain(v) for k, v in self.meta.items()}
        return out


def _plain(value: Any) -> Any:
    """Best-effort conversion of report payloads to JSON-safe values."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if hasattr(value, "to_json_dict"):
        try:
            return value.to_json_dict()
        except ConvexmodError:
            # tuple-keyed weightings have no JSON form; fall back to repr
            return str(value)
    return str(value)
