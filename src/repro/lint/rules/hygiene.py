"""Hygiene rules (RL020-RL029).

Failure-handling and API-surface rules: exception handlers that could
swallow :class:`~repro.faults.model.FaultEvent` processing or solver
errors, the classic mutable-default trap, and observability span names
drifting away from the documented taxonomy.
"""

from __future__ import annotations

import ast

from repro.lint.base import RuleVisitor, register

__all__ = ["MutableDefault", "SilentExcept", "SpanTaxonomy"]


@register
class SilentExcept(RuleVisitor):
    """Bare or overbroad ``except`` without a re-raise."""

    code = "RL020"
    name = "silent-except"
    category = "hygiene"
    description = (
        "bare 'except:' (always flagged) or 'except Exception/"
        "BaseException' with no raise in the handler — swallows "
        "FaultEvent handling and solver errors (InfeasibleError, "
        "EngineError) that callers rely on; catch the specific "
        "exceptions or re-raise after handling")

    _BROAD = ("Exception", "BaseException")

    def _is_broad(self, node: ast.expr | None) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Name):
            return node.id in self._BROAD
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(e) for e in node.elts)
        return False

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare 'except:' catches everything "
                              "including SystemExit/KeyboardInterrupt; "
                              "name the exceptions you expect")
        elif self._is_broad(node.type):
            reraises = any(isinstance(sub, ast.Raise)
                           for sub in ast.walk(node))
            if not reraises:
                self.report(
                    node,
                    "'except Exception' without a re-raise can swallow "
                    "FaultEvent and solver errors; catch the specific "
                    "exceptions or re-raise after handling")
        self.generic_visit(node)


@register
class MutableDefault(RuleVisitor):
    """Mutable default argument values."""

    code = "RL021"
    name = "mutable-default"
    category = "hygiene"
    description = (
        "list/dict/set literals (or their zero-arg constructors) as "
        "parameter defaults are shared across calls; default to None "
        "and construct inside the function")

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "dict", "set")
                and not node.args and not node.keywords)

    def _check(self, args: ast.arguments) -> None:
        for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None]:
            if self._is_mutable(default):
                self.report(default,
                            "mutable default argument is shared across "
                            "calls; use None and create it inside the "
                            "function")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check(node.args)
        self.generic_visit(node)


@register
class SpanTaxonomy(RuleVisitor):
    """Span names outside the documented taxonomy."""

    code = "RL022"
    name = "span-taxonomy"
    category = "hygiene"
    description = (
        "obs span() opened with a name segment missing from the table "
        "in docs/OBSERVABILITY.md — undocumented spans fragment the "
        "profile tree and silently break profile-structure identity "
        "tests; add the span to the doc table or reuse an existing "
        "name")

    def skip_file(self) -> bool:
        # no span table found above the linted path: nothing to check
        return (not self.config.span_taxonomy
                or self.ctx.path_matches(self.config.span_rule_skip))

    @staticmethod
    def _is_span_call(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("span", "obs_span")
        return isinstance(func, ast.Attribute) and func.attr == "span"

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_span_call(node) and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                unknown = [seg for seg in first.value.split(".")
                           if seg not in self.config.span_taxonomy]
                if unknown:
                    self.report(
                        first,
                        f"span name {first.value!r} has undocumented "
                        f"segment(s) {', '.join(sorted(unknown))}; add "
                        "them to the span-taxonomy table in "
                        "docs/OBSERVABILITY.md or reuse a documented "
                        "name")
        self.generic_visit(node)
