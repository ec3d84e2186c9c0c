"""CLQ007 — cache-invalidation soundness (flow-sensitive).

The tree caches nothing derived from itself; it counts its mutations
in ``ProbabilisticSuffixTree._version``, and the caches outside it key
on that counter (see docs/PERFORMANCE.md): the batch scorer's flat
exports and stacked tables, and a serving model's record of which trees
are unchanged since it was loaded. A mutation of tree state that does
not bump the version makes those caches serve stale — but
bit-exact-looking — probability tables. That failure is silent by
construction, so it must be impossible by construction.

The rule finds every class that participates in the contract (any
class with a method that writes ``self._version`` — the *invalidator*
methods, e.g. ``_invalidate``/``_mark_mutated``) and then checks every
other method with a CFG + dataflow analysis: **each write to tracked
tree state must have an invalidation on every execution path through
it** — either definitely before the write (decay-style ``_invalidate()``
up front) or definitely after it on all paths to every exit,
*including paths that leave via ``raise``* (a caller may catch the
exception and keep using the tree, so a mutate-then-raise path is a
stale-cache path too).

Tracked state is the node/count surface those caches are built from:
``count``, ``next_counts``, ``children``, ``root``, ``_node_count``,
``_sequences_added`` — written directly, through a subscript, through
a mutating dict/list method, or through a one-hop local alias
(``root_next = root.next_counts; root_next[s] = ...``).

Analysis assumptions (shared with :mod:`tools.checkers.cfg`): implicit
exceptions from arbitrary expressions are not modelled, and nested
``def``/``class`` bodies are opaque — a mutation hidden inside a
nested function is invisible to this rule.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..cfg import build_cfg, walk_element
from ..dataflow import BackwardMust, ForwardMust
from ..engine import FileContext, Rule, Violation, register
from ..symbols import ClassInfo

#: Attribute names making up the tracked count/node state surface.
TRACKED_ATTRS = frozenset(
    {"count", "next_counts", "children", "root", "_node_count", "_sequences_added"}
)

#: Container attributes whose mutating method calls count as writes.
_CONTAINER_ATTRS = frozenset({"next_counts", "children", "root"})

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault", "append", "extend", "insert", "remove"}
)

#: Methods exempt from the check: construction happens before any
#: cache can exist, and the invalidators are the mechanism itself.
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__init_subclass__"})


def _collect_aliases(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Local names bound to a tracked container attribute.

    One hop only: ``root_next = root.next_counts`` makes ``root_next``
    an alias; re-aliasing an alias is not chased.
    """
    aliases: set[str] = set()
    for stmt in func.body:
        for node in walk_element(stmt):
            if not isinstance(node, ast.Assign):
                continue
            if not (
                isinstance(node.value, ast.Attribute)
                and node.value.attr in _CONTAINER_ATTRS
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


def _target_mutates(target: ast.expr, aliases: set[str]) -> bool:
    """Whether assigning/deleting *target* writes tracked state."""
    if isinstance(target, ast.Attribute) and target.attr in TRACKED_ATTRS:
        return True
    if isinstance(target, ast.Subscript):
        base = target.value
        if isinstance(base, ast.Attribute) and base.attr in _CONTAINER_ATTRS:
            return True
        if isinstance(base, ast.Name) and base.id in aliases:
            return True
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_target_mutates(element, aliases) for element in target.elts)
    return False


def _mutation_in(element: ast.AST, aliases: set[str]) -> ast.AST | None:
    """The first tracked-state write inside *element*, or ``None``."""
    for node in walk_element(element):
        if isinstance(node, ast.Assign):
            if any(_target_mutates(t, aliases) for t in node.targets):
                return node
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if _target_mutates(node.target, aliases):
                return node
        elif isinstance(node, ast.Delete):
            if any(_target_mutates(t, aliases) for t in node.targets):
                return node
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
                base = func.value
                if isinstance(base, ast.Attribute) and base.attr in _CONTAINER_ATTRS:
                    return node
                if isinstance(base, ast.Name) and base.id in aliases:
                    return node
    return None


def _is_invalidation(node: ast.AST, invalidators: frozenset[str]) -> bool:
    """A call to an invalidator method, or a direct ``_version`` write."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in invalidators:
            return True
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr == "_version":
                return True
    return False


@register
class CacheInvalidationRule(Rule):
    rule_id = "CLQ007"
    summary = "tracked-state writes must reach a version bump on every path"

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code or not context.in_package("repro"):
            return
        if context.program is None:
            return
        for info in context.program.classes_in_module(context.module):
            if not info.version_bumpers:
                continue
            yield from self._check_class(context, info)

    def _check_class(
        self, context: FileContext, info: ClassInfo
    ) -> Iterator[Violation]:
        invalidators = frozenset(info.version_bumpers | {"_mark_mutated"})
        # Suggest the dedicated invalidator, not __init__ (which also
        # writes _version when it initialises the counter).
        named = sorted(b for b in info.version_bumpers if not b.startswith("__"))
        suggested = named[0] if named else sorted(invalidators)[0]

        def gen(node: ast.AST) -> bool:
            return _is_invalidation(node, invalidators)

        for name, method in info.methods.items():
            if name in invalidators or name in _EXEMPT_METHODS:
                continue
            aliases = _collect_aliases(method)
            cfg = build_cfg(method)
            forward = ForwardMust(cfg, gen)
            backward = BackwardMust(cfg, gen, exits=cfg.exits(include_raises=True))
            for block, index, element in cfg.iter_elements():
                mutation = _mutation_in(element, aliases)
                if mutation is None:
                    continue
                if any(gen(node) for node in walk_element(element)):
                    continue  # the element itself invalidates
                if forward.before(block, index) or backward.after(block, index):
                    continue
                yield self.violation(
                    context,
                    mutation,
                    f"{info.name}.{name} writes tracked tree state on a path "
                    f"that never bumps _version — call {suggested}() on "
                    "every path (stale version-keyed caches otherwise)",
                )
