"""LawReport: the uniform outcome record of every law / diagram check.

A report either passes or carries a counterexample with both evaluated
sides, so a failure is always replayable by hand.  The ``mode`` field
records how the verdict was reached (full enumeration, bounded
enumeration, seeded random trials, or certified by a theorem with a
witness constructor available for spot checks).

This module owns the one driver, ``law_report``, that runs a
per-instance check and builds the report with its metadata: the law
suites of ``distlaw`` and the property checks of ``semiring`` both run
through it.  It imports nothing from the package but ``errors``, so
every module can use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

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

    @property
    def met(self) -> bool:
        """The status is the outcome expected before the run."""
        return self.status == self.meta.get("expected")

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


def law_report(name: str, sr: Any, mode: str, instances: Iterable,
               check: Callable[[Any], dict | None], detail: str = "",
               fail_detail: str = "", expected: str = PASS,
               seed: int | None = None, trials: int | None = None,
               meta: Mapping[str, Any] | None = None) -> LawReport:
    """Run one law over its instances in order: ``check`` maps an
    instance to None where the law holds, else to a counterexample.
    The first counterexample ends the run, drawing no later instance,
    with a FAIL report carrying ``fail_detail``; otherwise the report
    passes with ``detail``.  ``sr`` is the semiring handle, named in
    the report by its id.  Every report's meta holds the ``expected``
    outcome, fixed before the run, and the number of instances checked,
    a counterexample included; a randomized one also its ``seed`` and
    ``trials``; then the caller's own ``meta`` keys, in their order."""
    checked = 0
    counterexample = None
    for instance in instances:
        checked += 1
        counterexample = check(instance)
        if counterexample is not None:
            break
    written = {"expected": expected, "instances": checked}
    if mode == MODE_RANDOMIZED:
        written.update(seed=seed, trials=trials)
    written.update(meta or {})
    held = counterexample is None
    return LawReport(name=name, semiring=sr.id, status=PASS if held else FAIL,
                     mode=mode, detail=detail if held else fail_detail,
                     counterexample=counterexample, meta=written)


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
