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

Every rule is a per-file :class:`~repro.lint.base.RuleVisitor` with a
stable ``RL0xx`` code; RL030-RL049 stay reserved for the retired
whole-program rules and are never reused.  The determinism contract
across files (keys, digests and sweep output independent of
``PYTHONHASHSEED``) is checked at run time by the hash-seed subprocess
tests in ``tests/experiments/test_engine.py``.
Findings can be suppressed per logical line
(``# repro-lint: disable=RL001``) or grandfathered in a committed
baseline file (``lint-baseline.json``) with a written reason.
"""

from repro.lint.base import (FileContext, LintConfig, RuleVisitor,
                             all_rules, get_rule, load_span_taxonomy,
                             register, rule_catalog)
from repro.lint.baseline import (Baseline, load_baseline,
                                 normalize_context, write_baseline)
from repro.lint.engine import iter_python_files, lint_paths, select_rules
from repro.lint.findings import Finding, LintReport
from repro.lint.output import render_github, render_json, render_text
from repro.lint.suppress import Suppressions, parse_suppressions

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintReport",
    "RuleVisitor",
    "Suppressions",
    "all_rules",
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
