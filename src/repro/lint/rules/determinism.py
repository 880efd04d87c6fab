"""Determinism rules (RL001-RL009).

These guard the repo's bit-identical-across-``--jobs`` contract: the
three-stage solver, the chaos sweeps and the experiment cache all
promise the same numbers for the same ``(config, seed)`` regardless of
process count, hash seed or wall-clock.  Each rule targets a failure
mode this codebase has actually hit or explicitly designs against.
"""

from __future__ import annotations

import ast

from repro.lint.base import RuleVisitor, register
from repro.lint.rules.common import (dotted_name, imported_modules,
                                     imported_names)

__all__ = ["JsonSetSerialization", "UnorderedIteration", "UnseededRng",
           "WallClock"]


def _cached_imports(rule: RuleVisitor) -> dict[str, str]:
    """Per-rule-instance memo of :func:`imported_modules`."""
    cached = getattr(rule, "_imports_cache", None)
    if cached is None:
        cached = imported_modules(rule.ctx.tree)
        rule._imports_cache = cached            # type: ignore[attr-defined]
    return cached


def _cached_from_imports(rule: RuleVisitor) -> dict[str, tuple[str, str]]:
    """Per-rule-instance memo of :func:`imported_names`."""
    cached = getattr(rule, "_from_imports_cache", None)
    if cached is None:
        cached = imported_names(rule.ctx.tree)
        rule._from_imports_cache = cached       # type: ignore[attr-defined]
    return cached


def _is_set_constructor(node: ast.expr) -> bool:
    """Set literal / set comprehension / ``set(...)`` / ``frozenset(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


class _SetNameCollector(ast.NodeVisitor):
    """Names assigned an obvious set expression (and never reassigned
    to something else) — a cheap, scope-blind dataflow approximation
    that errs toward silence."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.other_names: set[str] = set()

    def _record(self, target: ast.expr, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            (self.set_names if is_set else self.other_names).add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, _is_set_constructor(node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = (node.value is not None
                  and _is_set_constructor(node.value))
        self._record(node.target, is_set)
        self.generic_visit(node)

    def resolved(self) -> frozenset[str]:
        return frozenset(self.set_names - self.other_names)


@register
class UnorderedIteration(RuleVisitor):
    """Iteration order of a set leaking into ordered output."""

    code = "RL001"
    name = "unordered-iteration"
    category = "determinism"
    description = (
        "iterating a set/frozenset into an order-sensitive consumer "
        "(for loop, list(), tuple(), enumerate(), iter(), str.join(), "
        "list comprehension) — set order varies with PYTHONHASHSEED; "
        "wrap in sorted(...) to fix the order")

    _ORDERED_CALLS = ("list", "tuple", "enumerate", "iter", "reversed")

    def _set_names(self) -> frozenset[str]:
        names = getattr(self, "_cached_names", None)
        if names is None:
            collector = _SetNameCollector()
            collector.visit(self.ctx.tree)
            names = collector.resolved()
            self._cached_names = names
        return names

    def _is_set_expr(self, node: ast.expr) -> bool:
        if _is_set_constructor(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._set_names()
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        return False

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(node, f"{what} iterates a set in hash-dependent "
                          "order; wrap the set in sorted(...) so the "
                          "order is deterministic")

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node, "for loop")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for gen in node.generators:
            if self._is_set_expr(gen.iter):
                self._flag(node, "list comprehension")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        consumer: str | None = None
        if isinstance(func, ast.Name) and func.id in self._ORDERED_CALLS:
            consumer = f"{func.id}()"
        elif (isinstance(func, ast.Attribute) and func.attr == "join"
                and isinstance(func.value, (ast.Constant, ast.Name))):
            consumer = "str.join()"
        if consumer is not None and node.args \
                and self._is_set_expr(node.args[0]):
            self._flag(node, consumer)
        self.generic_visit(node)


@register
class JsonSetSerialization(RuleVisitor):
    """The PR-3 cache-split bug: ``json.dumps`` fed a set."""

    code = "RL002"
    name = "nondeterministic-serialization"
    category = "determinism"
    description = (
        "json.dumps/json.dump reached by a set (directly or via "
        "default=list) serializes members in PYTHONHASHSEED-dependent "
        "order — the bug that silently split the experiment cache "
        "across processes; canonicalize first (see "
        "repro.experiments.engine.canonical_json, which sorts set "
        "members by their canonical encoding)")

    _DEFAULT_COERCERS = ("list", "tuple", "sorted")

    def _is_json_dump(self, node: ast.Call) -> bool:
        dotted = dotted_name(node.func)
        if dotted is not None and "." in dotted:
            head, attr = dotted.rsplit(".", 1)
            mods = _cached_imports(self)
            return attr in ("dumps", "dump") and mods.get(head) == "json"
        if isinstance(node.func, ast.Name):
            origin = _cached_from_imports(self).get(node.func.id)
            return origin is not None and origin[0] == "json" \
                and origin[1] in ("dumps", "dump")
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_json_dump(node):
            payload_has_set = any(
                _is_set_constructor(sub)
                for arg in node.args for sub in ast.walk(arg))
            coercing_default = any(
                kw.arg == "default"
                and isinstance(kw.value, ast.Name)
                and kw.value.id in self._DEFAULT_COERCERS
                for kw in node.keywords)
            if payload_has_set or coercing_default:
                how = ("a set in its payload" if payload_has_set
                       else "default=list coercion")
                self.report(
                    node,
                    f"json serialization with {how} emits members in "
                    "PYTHONHASHSEED-dependent order (the PR-3 cache-key "
                    "bug); route the payload through "
                    "repro.experiments.engine.canonical_json instead")
        self.generic_visit(node)


@register
class UnseededRng(RuleVisitor):
    """Random draws outside the seeded-``Generator`` plumbing."""

    code = "RL003"
    name = "unseeded-rng"
    category = "determinism"
    description = (
        "random.* module-level draws, numpy legacy np.random.* global "
        "draws, and default_rng()/random.Random() without a seed are "
        "irreproducible; thread a seeded np.random.Generator through "
        "instead (every public entry point takes an rng argument)")

    _STDLIB_FNS = frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "vonmisesvariate", "getrandbits",
        "seed",
    })
    _NUMPY_LEGACY_FNS = frozenset({
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "choice", "shuffle", "permutation", "uniform", "normal",
        "poisson", "exponential", "standard_normal", "beta", "gamma",
        "binomial",
    })

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        mods = _cached_imports(self)
        if dotted is not None:
            parts = dotted.split(".")
            head = mods.get(parts[0], parts[0])
            if head == "random" and len(parts) == 2:
                if parts[1] in self._STDLIB_FNS:
                    self.report(
                        node,
                        f"{dotted}() draws from the process-global "
                        "stdlib RNG; pass a seeded "
                        "np.random.Generator instead")
                elif parts[1] == "Random" and not node.args:
                    self.report(
                        node, "random.Random() without a seed is "
                              "irreproducible; pass an explicit seed")
            elif head == "numpy" and len(parts) == 3 \
                    and parts[1] == "random" \
                    and parts[2] in self._NUMPY_LEGACY_FNS:
                self.report(
                    node,
                    f"{dotted}() uses numpy's legacy global RNG; use a "
                    "seeded np.random.default_rng(seed) Generator")
        tail = dotted.rsplit(".", 1)[-1] if dotted else None
        if tail == "default_rng" and not node.args and not node.keywords:
            self.report(
                node, "default_rng() without a seed gives every call a "
                      "fresh OS-entropy stream; pass the run's seed so "
                      "results are reproducible")
        self.generic_visit(node)


@register
class WallClock(RuleVisitor):
    """Wall-clock reads in deterministic paths."""

    code = "RL004"
    name = "wall-clock"
    category = "determinism"
    description = (
        "time.time()/datetime.now() readings leak the host clock into "
        "solver/DES/cache paths; simulated time must come from the "
        "trace and fault instants, cache keys from (config, seed).  "
        "Wall-clock spans live in repro.obs, which is allowlisted "
        "(time.perf_counter for *measured durations* is fine anywhere)")

    _FORBIDDEN = frozenset({
        "time.time", "time.time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "date.today", "datetime.date.today",
    })

    def skip_file(self) -> bool:
        return self.ctx.path_matches(self.config.wallclock_allow)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted in self._FORBIDDEN:
            self.report(
                node,
                f"{dotted}() reads the host wall clock — nondeterministic "
                "input to solver/DES/cache paths; derive times from the "
                "simulation clock or seeded config (observability spans "
                "in repro.obs are the allowlisted exception)")
        self.generic_visit(node)
