"""Machine-readable verification reports.

Reports are deterministic for a fixed (config, seed): checks are sorted by
id, floats are rendered to 17 significant digits, exact rationals through
``str`` (so 1/2 prints as "1/2" and 2 as "2", not "2/1"), and wall-clock
timings are omitted unless explicitly requested (a report with timings is
not byte-reproducible).  Each factory renders its values when it builds a
``Check``, so a record's ``fields`` are already its JSON fields.
"""

from __future__ import annotations

import json

from . import __version__


def render_float(x: float) -> str:
    return f"{x:.17g}"


class Check:
    """One verification record; ``pass`` decides the process exit status.

    ``kind`` is residual, rank, quadrature or value.  ``fields`` holds the
    record's other JSON fields as they render, less any given as None."""

    __slots__ = ("id", "kind", "passed", "fields", "elapsed_ms")

    def __init__(self, id: str, kind: str, passed: bool, *, elapsed_ms=None, **fields):
        self.id, self.kind, self.passed = id, kind, passed
        self.fields = {k: v for k, v in fields.items() if v is not None}
        self.elapsed_ms = elapsed_ms

    def to_json(self, with_timings: bool) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "pass": self.passed,
            **self.fields,
            "elapsed_ms": (
                round(self.elapsed_ms, 3) if (with_timings and self.elapsed_ms is not None) else None
            ),
        }


def residual_check(check_id, zero: bool, instances: int, elapsed_ms=None, detail=None) -> Check:
    return Check(
        id=check_id,
        kind="residual",
        passed=zero,
        instances=instances,
        status="exact-zero" if zero else "nonzero-residual",
        detail=detail,
        elapsed_ms=elapsed_ms,
    )


def rank_check(check_id, expected: int, actual: int) -> Check:
    return Check(
        id=check_id,
        kind="rank",
        passed=expected == actual,
        expected=expected,
        actual=actual,
    )


def value_check(check_id, expected, actual, detail=None) -> Check:
    return Check(
        id=check_id,
        kind="value",
        passed=expected == actual,
        expected=str(expected),
        actual=str(actual),
        detail=detail,
    )


def quadrature_check(check_id, max_abs: float, tolerance: float, detail=None) -> Check:
    return Check(
        id=check_id,
        kind="quadrature",
        passed=max_abs <= tolerance,
        status="max-abs-float",
        max_abs_float=render_float(max_abs),
        tolerance=render_float(tolerance),
        detail=detail,
    )


class Report:
    __slots__ = ("command", "config", "checks")

    def __init__(self, command: str, config: dict, checks: list | None = None):
        self.command, self.config = command, config
        self.checks = [] if checks is None else checks

    def add(self, check: Check) -> None:
        self.checks.append(check)

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self, with_timings: bool = False) -> dict:
        ordered = sorted(self.checks, key=lambda c: c.id)
        return {
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "checks": [c.to_json(with_timings) for c in ordered],
            "summary": {
                "pass": sum(1 for c in self.checks if c.passed),
                "fail": sum(1 for c in self.checks if not c.passed),
            },
        }

    def render(self, with_timings: bool = False) -> str:
        return json.dumps(self.to_json(with_timings), indent=2, sort_keys=True) + "\n"

    def exit_code(self) -> int:
        return 0 if not self.failures else 1
