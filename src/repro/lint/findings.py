"""Finding and report datatypes shared by the lint engine and outputs."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "LintReport"]


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic at one source location.

    Orders by ``(path, line, col, code)`` so reports are stable
    regardless of rule execution order.

    Attributes
    ----------
    path:
        POSIX-style path of the offending file, relative to the lint
        invocation's working directory.
    line, col:
        1-based source position.
    code:
        Stable rule code (``RL0xx``); ``RL000`` is reserved for files
        the engine could not parse.
    rule:
        Kebab-case rule name (``unordered-iteration``).
    message:
        Human-readable explanation with the suggested fix.
    context:
        The stripped source line — the key baselines match on, so
        grandfathered findings survive unrelated line-number drift.
    """

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str
    context: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
            "context": self.context,
        }


@dataclass
class LintReport:
    """Outcome of one lint run, partitioned by disposition.

    ``findings`` are actionable (they fail the run); ``suppressed`` and
    ``baselined`` are retained so the JSON report shows the full
    picture; ``stale_baseline`` lists baseline entries that matched
    nothing — candidates for deletion — while ``baseline_drift`` lists
    entries that matched only through whitespace normalization (the
    code reflowed; refresh the entry's context at leisure).
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict[str, str]] = field(default_factory=list)
    baseline_drift: list[dict[str, str]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing actionable remains."""
        return not self.findings

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": 3,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in sorted(self.findings)],
            "suppressed": [f.to_dict() for f in sorted(self.suppressed)],
            "baselined": [f.to_dict() for f in sorted(self.baselined)],
            "stale_baseline": list(self.stale_baseline),
            "baseline_drift": list(self.baseline_drift),
        }
