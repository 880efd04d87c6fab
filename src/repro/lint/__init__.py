"""repro.lint — AST-based determinism & physics-invariant analysis.

A dependency-free static-analysis pass purpose-built for this
codebase's reproducibility contract: the three-stage solver, chaos
sweeps and experiment cache promise bit-identical results across
``--jobs``, ``PYTHONHASHSEED`` and resume/replay.  The linter catches
the bug classes that silently break that promise — hash-ordered set
iteration reaching serialized output, unseeded RNG draws, wall-clock
reads in solver paths — plus the physics/units and hygiene footguns
documented in ``docs/LINTING.md``.

Usage::

    python -m repro lint src/                 # via the main CLI
    python -m repro.lint src/ --format json   # standalone

Rules come in two tiers sharing one registry of stable ``RL0xx`` codes:
per-file :class:`~repro.lint.base.RuleVisitor` subclasses and
whole-program :class:`~repro.lint.base.ProjectRule` dataflow analyses
(unit-dimension flow, determinism taint tracking) driven by the interpreter in :mod:`repro.lint.dataflow`.
Findings can be suppressed per logical line
(``# repro-lint: disable=RL001``) or grandfathered in a committed
baseline file (``lint-baseline.json``) with a written reason.
"""

from repro.lint.base import (FileContext, LintConfig,
                             ProjectRule, RuleVisitor, all_rules,
                             get_rule, load_span_taxonomy, register,
                             rule_catalog)
from repro.lint.baseline import (Baseline, load_baseline,
                                 normalize_context, write_baseline)
from repro.lint.engine import iter_python_files, lint_paths, select_rules
from repro.lint.findings import Finding, LintReport
from repro.lint.output import render_github, render_json, render_text
from repro.lint.project import Project, build_project
from repro.lint.suppress import Suppressions, parse_suppressions

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintReport",
    "Project",
    "ProjectRule",
    "RuleVisitor",
    "Suppressions",
    "all_rules",
    "build_project",
    "normalize_context",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "load_baseline",
    "load_span_taxonomy",
    "parse_suppressions",
    "register",
    "render_github",
    "render_json",
    "render_text",
    "rule_catalog",
    "select_rules",
    "write_baseline",
]
