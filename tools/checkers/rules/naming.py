"""CLQ006 — observability naming and span-usage discipline.

Two related conventions keep the telemetry surface machine-consumable
(docs/OBSERVABILITY.md):

1. Metric names handed to the registry factories (``counter``,
   ``gauge``, ``histogram``, ``timer``) must be dotted
   lowercase paths — ``layer.metric`` or deeper, matching
   ``^[a-z][a-z0-9_]*(\\.[a-z0-9_]+)+$`` — so the Prometheus exporter
   can group them by namespace. A bare ``counter("hits")`` collides
   across layers and breaks the grouping. Span names may be
   single-segment (the dotted path comes from nesting) but obey the
   same character set.

2. ``span(...)`` must be used as a context manager: the span records
   its timing in ``__exit__``, so a bare ``span("x")`` call silently
   records nothing and exports nothing.

The analysis is syntactic. Literal first arguments are checked in
full; for f-strings only the leading literal chunk is checked (e.g.
``f"span.{path}"`` validates ``"span."``); fully dynamic names are
trusted. Test code is exempt.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from ..engine import FileContext, Rule, Violation, register

#: Metric names: at least two dotted lowercase segments.
_METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
#: Span names: one or more segments, same character set.
_SPAN_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
#: f-string prefixes: namespace characters only, lowercase start.
_NAME_PREFIX = re.compile(r"^[a-z][a-z0-9_.]*$")

_METRIC_FACTORIES = frozenset(
    {"counter", "gauge", "histogram", "timer"}
)


def _called_name(call: ast.Call) -> str | None:
    """The bare method/function name of *call*, if syntactically plain."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _first_arg_problem(call: ast.Call, pattern: re.Pattern[str]) -> str | None:
    """Why the name argument of *call* violates *pattern*, or None."""
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant):
        if not isinstance(arg.value, str):
            return None  # not a name at all; other tooling's problem
        if not pattern.match(arg.value):
            return f"name {arg.value!r}"
        return None
    if isinstance(arg, ast.JoinedStr) and arg.values:
        head = arg.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            if not _NAME_PREFIX.match(head.value):
                return f"f-string prefix {head.value!r}"
    return None  # dynamic name — trusted


@register
class ObservabilityNamingRule(Rule):
    rule_id = "CLQ006"
    summary = "dotted metric names; span(...) only as a context manager"

    def check(self, context: FileContext) -> Iterator[Violation]:
        if not context.in_package("repro") or context.is_test_code:
            return
        with_spans: set[int] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_spans.add(id(item.context_expr))
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in _METRIC_FACTORIES:
                problem = _first_arg_problem(node, _METRIC_NAME)
                if problem is not None:
                    yield self.violation(
                        context,
                        node,
                        f"metric {problem} is not a dotted lowercase "
                        "path (want layer.metric, e.g. stream.batches)",
                    )
            elif name == "span":
                problem = _first_arg_problem(node, _SPAN_NAME)
                if problem is not None:
                    yield self.violation(
                        context,
                        node,
                        f"span {problem} is not a lowercase dotted/"
                        "single-segment name",
                    )
                if id(node) not in with_spans:
                    yield self.violation(
                        context,
                        node,
                        "span(...) outside a with-statement records "
                        "nothing — use `with span(...):`",
                    )
