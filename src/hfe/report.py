"""Verification reports and their serialization.

A report is a flat list of check records, each naming an internal rule
id (its "anchor"), the worst residual observed, and a pass/fail verdict
with failure locations.  JSON output is stable-ordered with numeric
values rounded to 12 significant digits so identical runs produce
byte-identical reports; a non-finite value is the string "nan", "inf"
or "-inf", so the output is strict JSON.
"""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np


class CheckRecord:
    def __init__(self, check_id: str, anchor: str, max_residual: float = 0.0,
                 passed: bool = True, failures: Optional[list] = None,
                 details: Optional[dict] = None):
        self.check_id = check_id
        self.anchor = anchor
        self.max_residual = max_residual
        self.passed = passed
        self.failures = [] if failures is None else failures
        self.details = {} if details is None else details


class VerificationReport:
    def __init__(self, scenario: str, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.tolerances: dict[str, float] = {}
        self.checks: list[CheckRecord] = []
        self.notes: list[str] = []
        self.wall_time = 0.0
        self.falsified = False

    def add(self, record: CheckRecord) -> CheckRecord:
        if any(c.check_id == record.check_id for c in self.checks):
            raise ValueError(f"duplicate check id {record.check_id!r}")
        self.checks.append(record)
        return record

    @property
    def passed(self) -> bool:
        return not self.falsified and all(c.passed for c in self.checks)


def _round12(x: float) -> float | str:
    """x to 12 significant digits; a non-finite x as the string "nan",
    "inf" or "-inf", since strict JSON has no such number."""
    if not np.isfinite(x):
        return str(float(x))
    if x == 0:
        return float(x)
    return float(f"{x:.12g}")


def _jsonable(obj: Any) -> Any:
    """Convert to JSON-serializable data with 12-significant-digit floats."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round12(obj.real), _round12(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return str(obj)


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "tolerances": _jsonable(report.tolerances),
        "status": "falsified" if report.falsified
        else ("pass" if report.passed else "fail"),
        "checks": [
            {
                "id": c.check_id,
                "anchor": c.anchor,
                "max_residual": _jsonable(c.max_residual),
                "pass": bool(c.passed),
                "failures": _jsonable(c.failures),
                "details": _jsonable(c.details),
            }
            for c in report.checks
        ],
        "notes": list(report.notes),
        "wall_time": _round12(report.wall_time),
    }


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    """Serialize a report; JSON is stable-ordered, text is one line per
    check, with SKIP and the reason for a skipped stage."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), sort_keys=True, indent=2,
                          allow_nan=False)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"scenario {report.scenario} (seed {report.seed})"]
    for c in report.checks:
        if c.anchor == "pipeline.skipped":
            lines.append(f"  {c.check_id:40s} SKIP  [{c.details['reason']}]")
            continue
        verdict = "PASS" if c.passed else "FAIL"
        line = f"  {c.check_id:40s} residual {c.max_residual:.3e}  {verdict}"
        if not c.passed and c.failures:
            locs = ", ".join(str(f) for f in c.failures[:4])
            line += f"  [{locs}]"
        lines.append(line)
    for note in report.notes:
        lines.append(f"  note: {note}")
    status = "FALSIFIED" if report.falsified else (
        "PASS" if report.passed else "FAIL")
    lines.append(f"  => {status} ({report.wall_time:.2f}s)")
    return "\n".join(lines)
