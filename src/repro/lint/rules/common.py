"""AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = ["dotted_name", "imported_modules", "imported_names",
           "walk_identifiers"]


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


def walk_identifiers(node: ast.AST) -> Iterator[str]:
    """Every Name id and Attribute attr in a subtree."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
