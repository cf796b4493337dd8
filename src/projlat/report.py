"""Run reports: per-check results with stable key order.

The only fields that vary between identical runs are the wall-clock
"seconds" entries; everything else is a pure function of the config and
inputs, which is what makes reports diffable.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .core import EQ_TOL, PROJ_TOL, RANK_REL

__all__ = ["CheckResult", "Report", "run_check"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    status: str  # PASS | FAIL | SKIPPED(<reason>)
    max_residual: float | None
    seconds: float
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS" or self.status.startswith("SKIPPED")

    def to_obj(self) -> dict:
        obj = {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "max_residual": self.max_residual,
            "seconds": round(self.seconds, 9),
        }
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        return obj


@dataclass
class Report:
    command: str
    shape: list[int]
    seed: int
    samples: int
    checks: list[CheckResult] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_obj(self) -> dict:
        return {
            "command": self.command,
            "config": {
                "shape": list(self.shape),
                "seed": self.seed,
                "samples": self.samples,
                "tolerances": {"rank_rel": RANK_REL, "proj_tol": PROJ_TOL, "eq_tol": EQ_TOL},
            },
            "status": "PASS" if self.passed else "FAIL",
            "checks": [c.to_obj() for c in self.checks],
            "seconds": round(sum(c.seconds for c in self.checks), 9),
            **self.extra,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2)


def _error(exc: Exception) -> dict:
    """The counterexample of a check that raised exc: its class and
    message, and the innermost raising frame ("package/module.py:function")."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    frame = f"{'/'.join(Path(where.filename).parts[-2:])}:{where.name}"
    return {"error": f"{type(exc).__name__}: {exc}", "frame": frame}


def run_check(
    name: str,
    anchor: str,
    fn: Callable[[], tuple[float | None, dict | None]],
    gate: float | None,
) -> CheckResult:
    """Time fn and grade its residual against the gate.

    fn returns (max_residual, counterexample_or_None); a yes/no check
    has no residual (None) and no gate (None), and passes without a
    counterexample.  Raising a projlat error with a .skip_reason
    attribute marks the check SKIPPED, any other exception is a FAIL
    with the message and the innermost raising frame
    ("package/module.py:function") attached; the frame names the
    function, not the line, so a report's bytes do not change when
    lines of the source move.
    """
    t0 = time.perf_counter()
    try:
        residual, ce = fn()
    except Exception as exc:  # noqa: BLE001 - suite must keep running
        dt = time.perf_counter() - t0
        reason = getattr(exc, "skip_reason", None)
        if reason is not None:
            return CheckResult(name, anchor, f"SKIPPED({reason})", None, dt)
        return CheckResult(name, anchor, "FAIL", None, dt, _error(exc))
    dt = time.perf_counter() - t0
    residual = None if residual is None else float(residual)
    passed = ce is None and (residual is None or residual <= gate)
    return CheckResult(name, anchor, "PASS" if passed else "FAIL", residual, dt, ce)
