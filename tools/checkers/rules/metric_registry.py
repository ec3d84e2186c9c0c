"""CLQ010 — cross-module telemetry-name consistency.

The telemetry surface (the catalogue in docs/OBSERVABILITY.md) is
consumed by dashboards and the bench trajectory ledger, which join on
*names*. A typo'd metric name (``pst.prune_event``) silently creates a
second series nobody charts; a renamed span breaks every saved query. v2
makes the name set a declared, reviewable artifact:
``src/repro/obs/names.py`` holds the registry constants (``METRICS``
and ``SPANS`` plus ``*_PREFIXES`` for dynamic families), parsed in
pass 1 by :class:`~tools.checkers.symbols.ProgramIndex`.

This rule then resolves every literal name at every emission site —
``metrics.counter(...)``/``gauge``/``histogram``/``timer`` and
``obs.span(...)`` — against the registry. F-strings are checked by their literal head: the head must
extend a declared prefix, or some declared name must still be able to
complete it. Sites whose first argument is not a string literal at all
(plumbing that forwards a caller-supplied name) are out of scope.

The rule is quiet when no registry module is part of the analyzed file
set (e.g. single-file invocations), so it cannot produce noise before
the registry exists.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, Rule, Violation, register
from ..symbols import NameRegistry

#: Emitter method name → the registry namespace it draws from.
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram", "timer"})
_SPAN_METHODS = frozenset({"span"})

_ALL_METHODS = _METRIC_METHODS | _SPAN_METHODS


def _fstring_head(node: ast.JoinedStr) -> str | None:
    """Leading literal text of an f-string, up to the first ``{...}``."""
    head = ""
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            head += value.value
        else:
            break
    return head or None


def _first_name_arg(call: ast.Call) -> ast.expr | None:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


@register
class MetricRegistryRule(Rule):
    rule_id = "CLQ010"
    summary = "emitted telemetry names must resolve against repro/obs/names.py"

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code or not context.in_package("repro"):
            return
        program = context.program
        if program is None or program.names is None:
            return
        registry = program.names
        if context.module == registry.module:
            return  # the registry itself declares, it does not emit
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in _ALL_METHODS):
                continue
            method = func.attr
            arg = _first_name_arg(node)
            if arg is None:
                continue
            yield from self._check_site(context, registry, method, node, arg)

    def _check_site(
        self,
        context: FileContext,
        registry: NameRegistry,
        method: str,
        call: ast.Call,
        arg: ast.expr,
    ) -> Iterator[Violation]:
        if method in _METRIC_METHODS:
            kind, exact, prefix_ok = (
                "metric",
                registry.resolves_metric,
                registry.resolves_metric_prefix,
            )
        else:
            kind, exact, prefix_ok = (
                "span",
                registry.resolves_span,
                registry.resolves_span_prefix,
            )

        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not exact(arg.value):
                yield self.violation(
                    context,
                    arg,
                    f"{kind} name {arg.value!r} is not declared in "
                    "repro/obs/names.py — typo'd names fork the series "
                    "silently; declare it or fix the spelling",
                )
        elif isinstance(arg, ast.JoinedStr):
            head = _fstring_head(arg)
            if head is not None and not prefix_ok(head):
                yield self.violation(
                    context,
                    arg,
                    f"dynamic {kind} name starting {head!r} matches no "
                    "declared name or prefix in repro/obs/names.py — "
                    "declare a prefix for the family",
                )
