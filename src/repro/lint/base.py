"""Rule framework: per-file context, lint configuration, visitor base.

A rule is an :class:`ast.NodeVisitor` subclass with a stable code
(``RL0xx``), registered via :func:`register`.  The engine instantiates
every selected rule per file and concatenates their findings; rules
never see each other, so adding one cannot perturb another's output.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import ClassVar, Iterator

from repro.lint.findings import Finding

__all__ = [
    "FileContext",
    "LintConfig",
    "RuleVisitor",
    "all_rules",
    "get_rule",
    "load_span_taxonomy",
    "register",
    "rule_catalog",
]

_CODE_RE = re.compile(r"^RL\d{3}$")

#: Physical constants that must come from :mod:`repro.units`, keyed by
#: their float value.
PHYSICAL_CONSTANTS: dict[float, str] = {
    1.205: "repro.units.AIR_DENSITY",
    25.0: "repro.units.NODE_REDLINE_C",
    40.0: "repro.units.CRAC_REDLINE_C",
}


@dataclass(frozen=True)
class LintConfig:
    """Knobs shared by every rule.

    Attributes
    ----------
    span_taxonomy:
        Allowed span-name segments (RL022); empty when no span table
        was found, which disables the rule.
    wallclock_allow:
        POSIX path fragments where wall-clock reads are legitimate —
        the observability layer measures wall time by design (RL004).
    span_rule_skip:
        POSIX path fragments where RL022 does not apply (the tracer
        implementation itself).
    physical_constants:
        ``float value -> canonical symbol`` map for RL010.
    """

    span_taxonomy: frozenset[str] = frozenset()
    wallclock_allow: tuple[str, ...] = ("repro/obs/",)
    span_rule_skip: tuple[str, ...] = ("repro/obs/",)
    physical_constants: dict[float, str] = field(
        default_factory=lambda: dict(PHYSICAL_CONSTANTS))


_SPAN_SECTION_RE = re.compile(
    r"^##\s+Span taxonomy\s*$(.*?)(?:^##\s|\Z)", re.MULTILINE | re.DOTALL)
_SPAN_NAME_RE = re.compile(r"^\|\s*`([a-zA-Z0-9_.]+)`", re.MULTILINE)


def load_span_taxonomy(start: Path) -> frozenset[str]:
    """Parse the span table of ``docs/OBSERVABILITY.md``.

    Walks up from ``start`` looking for ``docs/OBSERVABILITY.md`` and
    collects every backtick-quoted name in the first column of the
    "Span taxonomy" table, split into dot segments.  Returns an empty
    set when the doc is missing or the section cannot be parsed: the
    doc is the only copy of the table, and RL022 does not run without
    it — the lint must not *require* the doc.
    """
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for ancestor in (node, *node.parents):
        doc = ancestor / "docs" / "OBSERVABILITY.md"
        if doc.is_file():
            break
    else:
        return frozenset()
    try:
        text = doc.read_text(encoding="utf-8")
    except OSError:
        return frozenset()
    section = _SPAN_SECTION_RE.search(text)
    if section is None:
        return frozenset()
    segments: set[str] = set()
    for dotted in _SPAN_NAME_RE.findall(section.group(1)):
        segments.update(dotted.split("."))
    return frozenset(segments)


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: Path
    rel_path: str          # POSIX, relative to the invocation cwd
    source: str
    lines: list[str]
    tree: ast.Module

    def line_text(self, lineno: int) -> str:
        """Stripped source text of a 1-based line (baseline context)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def path_matches(self, fragments: tuple[str, ...]) -> bool:
        """True when the file's path contains any POSIX fragment."""
        posix = str(PurePosixPath(self.rel_path))
        return any(frag in posix for frag in fragments)


class RuleVisitor(ast.NodeVisitor):
    """Base class for one lint rule.

    Subclasses set the class attributes, implement ``visit_*`` methods
    and call :meth:`report`; :meth:`run` drives the traversal.  A rule
    returning no findings on a file is the common case, so construction
    stays allocation-light.
    """

    code: ClassVar[str] = "RL000"
    name: ClassVar[str] = "abstract-rule"
    category: ClassVar[str] = "none"
    description: ClassVar[str] = ""

    def __init__(self, ctx: FileContext, config: LintConfig) -> None:
        self.ctx = ctx
        self.config = config
        self.findings: list[Finding] = []

    # -- subclass API --------------------------------------------------
    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding at ``node``'s position."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        self.findings.append(Finding(
            path=self.ctx.rel_path, line=lineno, col=col,
            code=self.code, rule=self.name, message=message,
            context=self.ctx.line_text(lineno)))

    def skip_file(self) -> bool:
        """Override to exempt whole files (e.g. the tracer itself)."""
        return False

    # -- engine API ----------------------------------------------------
    def run(self) -> list[Finding]:
        if not self.skip_file():
            self.visit(self.ctx.tree)
        return self.findings


_REGISTRY: dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a rule to the global registry.

    Codes are the stable public contract (suppressions and baselines
    refer to them), so duplicates and malformed codes are hard errors.
    """
    if not _CODE_RE.match(cls.code):
        raise ValueError(f"rule code {cls.code!r} must match RL0xx")
    if cls.code in _REGISTRY:
        raise ValueError(
            f"duplicate rule code {cls.code}: "
            f"{_REGISTRY[cls.code].__name__} vs {cls.__name__}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> list[type]:
    """Every registered rule, ordered by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> type:
    _ensure_loaded()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"unknown rule code {code!r}; known: "
                       f"{', '.join(sorted(_REGISTRY))}") from None


def rule_catalog() -> Iterator[tuple[str, str, str, str]]:
    """(code, name, category, description) rows for docs and --list."""
    for cls in all_rules():
        yield cls.code, cls.name, cls.category, cls.description


def _ensure_loaded() -> None:
    # Importing the rules package executes the @register decorators.
    from repro.lint import rules as _rules  # noqa: F401
