"""Lint driver: file discovery, rule execution, disposition.

Deterministic by construction: files are visited in sorted order, rules
in code order, findings sorted before output — the same tree always
produces byte-identical reports (the property this linter exists to
protect in the code it checks).  ``--since REV`` narrows the run to
the changed files: only those are parsed and reported.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path, PurePosixPath

from repro.lint.base import FileContext, LintConfig, all_rules
from repro.lint.baseline import Baseline
from repro.lint.findings import Finding, LintReport
from repro.lint.suppress import parse_suppressions

__all__ = ["iter_python_files", "lint_paths", "select_rules"]

_SKIP_DIRS = {"__pycache__", ".git", ".repro-cache", ".venv", "venv",
              "build", "dist", "node_modules"}


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for root, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith("."))
                for name in filenames:
                    if name.endswith(".py"):
                        out.add(Path(root) / name)
        elif p.suffix == ".py":
            out.add(p)
        elif not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
    return sorted(out)


def select_rules(select: list[str] | None = None,
                 ignore: list[str] | None = None) -> list[type]:
    """Resolve ``--select`` / ``--ignore`` into a rule list.

    ``select`` picks exactly those codes (and validates them);
    ``ignore`` then removes codes.  With neither, every registered rule
    runs.
    """
    rules = all_rules()
    known = {cls.code for cls in rules}
    for code in (select or []) + (ignore or []):
        if code not in known:
            raise ValueError(f"unknown rule code {code!r}; known: "
                             f"{', '.join(sorted(known))}")
    if select:
        wanted = set(select)
        rules = [cls for cls in rules if cls.code in wanted]
    if ignore:
        unwanted = set(ignore)
        rules = [cls for cls in rules if cls.code not in unwanted]
    return rules


def _rel_posix(path: Path) -> str:
    try:
        rel = path.resolve().relative_to(Path.cwd())
    except ValueError:
        rel = path
    return str(PurePosixPath(rel))


def _parse_file(path: Path) -> FileContext | Finding:
    """Parse one file, or explain why it cannot be parsed."""
    rel = _rel_posix(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Finding(path=rel, line=1, col=1, code="RL000",
                       rule="parse-error",
                       message=f"cannot read file: {exc}")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(path=rel, line=exc.lineno or 1,
                       col=(exc.offset or 0) + 1, code="RL000",
                       rule="parse-error",
                       message=f"syntax error: {exc.msg}")
    return FileContext(path=path, rel_path=rel, source=source,
                       lines=source.splitlines(), tree=tree)


def lint_paths(paths: list[str | Path], *,
               rules: list[type] | None = None,
               config: LintConfig | None = None,
               baseline: Baseline | None = None,
               restrict_to: set[str] | None = None) -> LintReport:
    """Lint every Python file under ``paths`` and build the report.

    ``restrict_to``, when given, is a set of resolved POSIX paths
    (``--since``): only those files are parsed and reported.
    """
    rules = all_rules() if rules is None else rules
    config = config or LintConfig()

    report = LintReport()
    raw: list[Finding] = []
    checked: set[str] = set()
    for path in iter_python_files(paths):
        if restrict_to is not None \
                and str(path.resolve().as_posix()) not in restrict_to:
            continue
        report.files_checked += 1
        checked.add(_rel_posix(path))
        ctx = _parse_file(path)
        if isinstance(ctx, Finding):
            raw.append(ctx)
            continue
        suppressions = parse_suppressions(ctx.source)
        for cls in rules:
            for finding in cls(ctx, config).run():
                if suppressions.is_suppressed(finding.code, finding.line):
                    report.suppressed.append(finding)
                else:
                    raw.append(finding)

    for finding in sorted(raw):
        if baseline is not None and baseline.absorb(finding):
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    if baseline is not None:
        # only entries this run could have matched are judged: a rule
        # left out by --select/--ignore, or a file outside the paths or
        # the --since set, says nothing about whether an entry is stale
        report.stale_baseline = baseline.stale_entries(
            codes={"RL000"} | {cls.code for cls in rules}, paths=checked)
        report.baseline_drift = baseline.drifted_entries()
    report.findings.sort()
    report.suppressed.sort()
    report.baselined.sort()
    return report
