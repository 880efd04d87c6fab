"""``repro lint`` — argument handling and the command body.

Exit codes: 0 clean (possibly with baselined/suppressed findings),
1 actionable findings (or unparsable files), 2 usage errors.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.base import (LintConfig, load_span_taxonomy, rule_catalog)
from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.engine import lint_paths, select_rules
from repro.lint.output import render_github, render_json, render_text

__all__ = ["add_lint_arguments", "main", "run_lint_command"]

DEFAULT_BASELINE = "lint-baseline.json"
FORMATS = ("text", "json", "github")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` arguments to ``parser``."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    parser.add_argument("--format", choices=FORMATS, default="text",
                        help="report format (default text; 'github' "
                             "emits ::error annotations for Actions)")
    parser.add_argument("--baseline", type=str, default=DEFAULT_BASELINE,
                        help="baseline file of grandfathered findings "
                             f"(default {DEFAULT_BASELINE}; a missing "
                             "file is an empty baseline)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file entirely")
    parser.add_argument("--select", type=str, default=None,
                        help="comma-separated rule codes to run "
                             "exclusively (e.g. RL001,RL002)")
    parser.add_argument("--ignore", type=str, default=None,
                        help="comma-separated rule codes to skip")
    parser.add_argument("--since", metavar="REV", default=None,
                        help="lint only the files changed since REV "
                             "(git diff --name-only REV, plus untracked "
                             "files)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write every current finding to the "
                             "baseline file and exit 0 (adoption "
                             "workflow; fill in the reasons!)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")


def _split_codes(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [c.strip() for c in text.split(",") if c.strip()]


def _changed_since(rev: str) -> set[str]:
    """Resolved POSIX paths of .py files changed since ``rev``.

    Changed-or-added tracked files (``git diff --name-only``) plus
    untracked files, anchored at the repository toplevel so the set
    compares equal to the engine's resolved paths from any cwd.
    """
    def git(*cmd: str) -> str:
        proc = subprocess.run(["git", *cmd], capture_output=True,
                              text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"git {' '.join(cmd)} failed: "
                f"{proc.stderr.strip() or proc.stdout.strip()}")
        return proc.stdout

    top = Path(git("rev-parse", "--show-toplevel").strip())
    names = git("diff", "--name-only", "-z", rev, "--").split("\0")
    names += git("ls-files", "--others", "--exclude-standard",
                 "-z").split("\0")
    return {(top / name).resolve().as_posix()
            for name in names if name.endswith(".py")}


def run_lint_command(args: argparse.Namespace) -> int:
    """Body of ``repro lint`` (shared by repro.cli and python -m)."""
    if args.list_rules:
        for code, name, category, description in rule_catalog():
            print(f"{code}  {name:30s} [{category}]")
            print(f"       {description}")
        return 0
    try:
        rules = select_rules(_split_codes(args.select),
                             _split_codes(args.ignore))
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    start = Path(args.paths[0]) if args.paths else Path.cwd()
    config = LintConfig(span_taxonomy=load_span_taxonomy(start))
    baseline = None
    if not args.no_baseline and not args.write_baseline:
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    restrict_to = None
    if args.since is not None:
        try:
            restrict_to = _changed_since(args.since)
        except (RuntimeError, OSError) as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    try:
        report = lint_paths(list(args.paths), rules=rules, config=config,
                            baseline=baseline, restrict_to=restrict_to)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(report.findings, args.baseline)
        print(f"wrote {len(report.findings)} entries to {args.baseline}; "
              "replace the TODO reasons with real justifications")
        return 0
    renderer = {"text": render_text, "json": render_json,
                "github": render_github}[args.format]
    print(renderer(report))
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point: ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism / physics-invariant / "
                    "hygiene analysis for the repro codebase")
    add_lint_arguments(parser)
    return run_lint_command(parser.parse_args(argv))
