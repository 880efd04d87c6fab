"""Project model: module graph and symbol table for whole-program rules.

The per-file rules (:mod:`repro.lint.rules`) see one ``ast.Module`` at a
time; the dataflow analyses (RL03x/RL04x) need to see *across*
files — a taint source in ``repro.serve.service`` can reach a cache-key
sink in ``repro.experiments.engine`` through three call hops.  This
module parses every linted file once into a :class:`Project`:

* dotted module names derived from the package layout (``src/repro/
  units.py`` → ``repro.units``; a loose file is its own stem),
* per-module import tables (``import x as y`` / ``from m import n``),
* a symbol table of every module-level function, method and class,
* :meth:`Project.resolve`, the conservative name resolver every
  analysis shares: a dotted call target is resolved through the import
  tables to a fully-qualified name, falling back to the local module
  namespace and finally to the raw dotted text (builtins stay bare:
  ``sorted``, ``int``).

Everything is built eagerly and deterministically (files in sorted
order, dicts keyed by qualified name) so analysis output is stable
across runs and ``PYTHONHASHSEED`` values — the linter holds itself to
the invariant it enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol

__all__ = ["ClassInfo", "FunctionInfo", "ModuleInfo",
           "Project", "build_project", "dotted_name", "imported_modules",
           "imported_names", "module_name_for"]


# -- AST naming helpers (rules.common re-exports these; they live here
# so the project model does not import the rules package) --------------

def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def imported_modules(tree: ast.Module) -> dict[str, str]:
    """``local alias -> module`` for every ``import`` in the file."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = alias.name
    return out


def imported_names(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """``local alias -> (module, name)`` for every ``from m import n``."""
    out: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


class SourceFile(Protocol):
    """What :func:`build_project` needs per file (FileContext satisfies it)."""

    path: Path
    rel_path: str
    source: str
    lines: list[str]
    tree: ast.Module


def module_name_for(path: Path) -> str:
    """Dotted module name implied by the package layout around ``path``.

    Walks up while the parent directory holds an ``__init__.py``; a file
    outside any package is addressed by its bare stem (fixtures, scripts).
    """
    parts: list[str] = []
    if path.name == "__init__.py":
        parts.append(path.parent.name)
        node = path.parent.parent
    else:
        parts.append(path.stem)
        node = path.parent
    while (node / "__init__.py").is_file():
        parts.append(node.name)
        node = node.parent
    return ".".join(reversed(parts))


@dataclass
class ClassInfo:
    """A class definition."""

    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef


@dataclass
class FunctionInfo:
    """A function or method definition with its parameter shapes."""

    qualname: str
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str] = field(default_factory=list)
    annotations: dict[str, str | None] = field(default_factory=dict)
    is_method: bool = False


@dataclass
class ModuleInfo:
    """One parsed source file plus its local symbol and import tables."""

    name: str
    path: Path
    rel_path: str
    source: str
    lines: list[str]
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def _annotation_text(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value           # string annotation ("SolveState")
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):    # pragma: no cover
        return None


def _collect_function(module: ModuleInfo,
                      node: ast.FunctionDef | ast.AsyncFunctionDef,
                      owner: str | None) -> None:
    local = node.name if owner is None else f"{owner}.{node.name}"
    qualname = f"{module.name}.{local}"
    args = node.args
    params = [a.arg for a in (*args.posonlyargs, *args.args,
                              *args.kwonlyargs)]
    annotations = {a.arg: _annotation_text(a.annotation)
                   for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs)}
    if args.vararg is not None:
        params.append(args.vararg.arg)
        annotations[args.vararg.arg] = None
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
        annotations[args.kwarg.arg] = None
    module.functions[qualname] = FunctionInfo(
        qualname=qualname, module=module, node=node, params=params,
        annotations=annotations, is_method=owner is not None)


def _collect_class(module: ModuleInfo, node: ast.ClassDef) -> None:
    qualname = f"{module.name}.{node.name}"
    info = ClassInfo(qualname=qualname, module=module, node=node)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _collect_function(module, stmt, node.name)
    module.classes[qualname] = info


#: Names treated as builtins by :meth:`Project.resolve` — unresolved
#: bare names fall back to themselves, so this set only needs the ones
#: analyses key behavior on.
_KNOWN_BUILTINS = frozenset({
    "sorted", "list", "tuple", "set", "frozenset", "dict", "str", "repr",
    "int", "float", "bool", "len", "id", "hash", "enumerate", "zip",
    "min", "max", "sum", "abs", "round", "print", "range", "reversed",
})


@dataclass
class Project:
    """All modules under analysis plus global symbol lookup."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def resolve(self, module: ModuleInfo, expr: ast.expr) -> str | None:
        """Best-effort fully-qualified name of a Name/Attribute chain.

        Resolution order: ``from m import n`` aliases, ``import m as a``
        aliases, the module's own namespace, then the raw dotted text
        (so ``time.time`` without an import table hit still reads as
        ``time.time`` and builtins stay bare).  Returns ``None`` for
        expressions that are not name chains (calls on call results,
        subscripts, ``self.x`` methods resolve to ``None`` — analyses
        treat those conservatively).
        """
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in module.from_imports:
            mod, name = module.from_imports[head]
            base = f"{mod}.{name}"
            return f"{base}.{rest}" if rest else base
        if head in module.imports:
            base = module.imports[head]
            return f"{base}.{rest}" if rest else base
        local = f"{module.name}.{dotted}"
        if local in self.functions or local in self.classes:
            return local
        if not rest and head in _KNOWN_BUILTINS:
            return head
        return dotted

    def function(self, fqn: str | None) -> FunctionInfo | None:
        """Project function for a resolved name, tolerating class hops.

        ``m.Class`` used as a constructor resolves to the class; a
        resolved ``m.Class.method`` is looked up directly.
        """
        if fqn is None:
            return None
        return self.functions.get(fqn)

    def sorted_modules(self) -> list[ModuleInfo]:
        return [self.modules[name] for name in sorted(self.modules)]

    def sorted_functions(self) -> list[FunctionInfo]:
        return [self.functions[name] for name in sorted(self.functions)]


def build_project(files: Iterable[SourceFile]) -> Project:
    """Assemble a :class:`Project` from already-parsed files.

    Files arrive pre-parsed (the engine reads each file exactly once for
    both the AST rules and the dataflow pass).  Duplicate module names —
    two loose fixture files both named ``mod.py`` — keep the first in
    sorted-path order; analyses only ever see consistent tables.
    """
    project = Project()
    for ctx in sorted(files, key=lambda c: c.rel_path):
        name = module_name_for(Path(ctx.path))
        if name in project.modules:
            continue
        module = ModuleInfo(
            name=name, path=Path(ctx.path), rel_path=ctx.rel_path,
            source=ctx.source, lines=list(ctx.lines), tree=ctx.tree,
            imports=imported_modules(ctx.tree),
            from_imports=imported_names(ctx.tree))
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _collect_function(module, stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                _collect_class(module, stmt)
        project.modules[name] = module
        project.functions.update(module.functions)
        project.classes.update(module.classes)
    return project
