"""Report renderers: human text, machine JSON, GitHub annotations."""

from __future__ import annotations

import json

from repro.lint.findings import LintReport

__all__ = ["render_github", "render_json", "render_text"]


def render_text(report: LintReport) -> str:
    """Compiler-style ``path:line:col: CODE message`` lines + summary."""
    lines = [f"{f.path}:{f.line}:{f.col}: {f.code} {f.message} [{f.rule}]"
             for f in report.findings]
    summary = (f"{len(report.findings)} finding"
               f"{'' if len(report.findings) == 1 else 's'} "
               f"({report.files_checked} files checked, "
               f"{len(report.baselined)} baselined, "
               f"{len(report.suppressed)} suppressed)")
    lines.append(summary)
    for entry in report.stale_baseline:
        lines.append(
            f"stale baseline entry (no longer matches): "
            f"{entry['code']} {entry['path']}: {entry['context']!r}")
    for entry in report.baseline_drift:
        lines.append(
            f"baseline drift (matched via whitespace normalization; "
            f"refresh the context): {entry['code']} {entry['path']}: "
            f"{entry['context']!r} -> {entry['found_context']!r}")
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """The full report as a schema-versioned JSON document."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def _escape_annotation(text: str) -> str:
    # GitHub workflow-command escaping for the message payload.
    return (text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))


def render_github(report: LintReport) -> str:
    """``::error`` workflow commands — inline PR annotations in Actions."""
    lines = [f"::error file={f.path},line={f.line},col={f.col},"
             f"title={f.code} {f.rule}::{_escape_annotation(f.message)}"
             for f in report.findings]
    lines.append(f"{len(lines)} findings / "
                 f"{report.files_checked} files")
    return "\n".join(lines)
