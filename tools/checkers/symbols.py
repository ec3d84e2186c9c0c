"""Pass 1: the repo-wide symbol table for whole-program rules.

The v2 analyzer runs in two passes. Before any rule executes,
:class:`ProgramIndex.build` walks every file in the run and records the
cross-file facts the flow-sensitive rules need:

* **Classes** — per class: its methods, which of them bump a
  ``_version`` attribute (the cache-invalidation contract of
  ``ProbabilisticSuffixTree``, CLQ007), which call ``os.fsync`` (the
  durability discipline of ``StreamJournal``, CLQ008), and whether the
  class owns its resource lifetimes (``close``/``__exit__``, CLQ009).
* **Approved durability writers** — module-level functions that fsync
  what they write; a file write in ``repro.stream`` outside one of
  these (or outside an fsync-disciplined class) is a CLQ008 finding.
* **The declared telemetry-name registry** — parsed from the module
  named ``*.obs.names`` (``repro/obs/names.py``): the exact metric
  and span names the codebase is allowed to emit, plus prefixes for
  dynamic families. CLQ010 resolves every
  literal name at every emission site against this registry.

The index is attached to each :class:`~tools.checkers.engine.FileContext`
as ``context.program`` before pass 2 (the rules) runs. Single-file
checks get an index over just that file, so the class-level facts still
resolve; the name registry is simply absent then and CLQ010 stays
quiet.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .cfg import walk_element

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import FileContext

__all__ = ["ClassInfo", "FunctionInfo", "NameRegistry", "ProgramIndex"]

#: Registry-module constants recognised in ``repro/obs/names.py``.
_REGISTRY_FIELDS = {
    "METRICS": "metrics",
    "METRIC_PREFIXES": "metric_prefixes",
    "SPANS": "spans",
    "SPAN_PREFIXES": "span_prefixes",
}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` attribute chains as a dotted string (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _writes_attr(func: ast.FunctionDef | ast.AsyncFunctionDef, attr: str) -> bool:
    """Whether *func* assigns (or aug-assigns) ``<expr>.<attr>`` anywhere."""
    for stmt in func.body:
        for node in walk_element(stmt):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr == attr:
                    return True
                if isinstance(target, ast.Tuple):
                    for element in target.elts:
                        if isinstance(element, ast.Attribute) and element.attr == attr:
                            return True
    return False


def calls_fsync(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether *func* contains an ``os.fsync(...)`` (or bare ``fsync``) call."""
    for stmt in func.body:
        for node in walk_element(stmt):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.split(".")[-1] == "fsync":
                    return True
    return False


@dataclass
class FunctionInfo:
    """One module-level function, with the facts CLQ008 cares about."""

    name: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    fsyncs: bool


@dataclass
class ClassInfo:
    """One class definition, with the facts the flow rules care about."""

    name: str
    module: str
    node: ast.ClassDef
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: Methods that bump ``self._version`` — the approved invalidators.
    version_bumpers: set[str] = field(default_factory=set)
    #: Methods that call ``os.fsync`` — the class flushes what it writes.
    fsync_methods: set[str] = field(default_factory=set)
    #: The class manages handle lifetime (``close`` or ``__exit__``).
    manages_resources: bool = False

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class NameRegistry:
    """Declared telemetry names parsed from ``repro/obs/names.py``."""

    module: str = ""
    metrics: frozenset[str] = frozenset()
    metric_prefixes: tuple[str, ...] = ()
    spans: frozenset[str] = frozenset()
    span_prefixes: tuple[str, ...] = ()

    def resolves_metric(self, name: str) -> bool:
        return name in self.metrics or name.startswith(self.metric_prefixes or ("\0",))

    def resolves_metric_prefix(self, head: str) -> bool:
        """Whether an f-string head can still resolve to a declared name."""
        if any(head.startswith(p) for p in self.metric_prefixes):
            return True
        return any(m.startswith(head) for m in self.metrics)

    def resolves_span(self, name: str) -> bool:
        return name in self.spans or name.startswith(self.span_prefixes or ("\0",))

    def resolves_span_prefix(self, head: str) -> bool:
        if any(head.startswith(p) for p in self.span_prefixes):
            return True
        return any(s.startswith(head) for s in self.spans)


def _literal_strings(node: ast.expr) -> frozenset[str]:
    """String constants inside a set/frozenset/tuple/list literal."""
    values: set[str] = set()
    if isinstance(node, ast.Call):  # frozenset({...}) / frozenset((...))
        if node.args:
            return _literal_strings(node.args[0])
        return frozenset()
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                values.add(element.value)
    return frozenset(values)


def _parse_name_registry(module: str, tree: ast.Module) -> NameRegistry:
    registry = NameRegistry(module=module)
    for stmt in tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        attr = _REGISTRY_FIELDS.get(target.id)
        if attr is None:
            continue
        names = _literal_strings(value)
        if attr in ("metric_prefixes", "span_prefixes"):
            setattr(registry, attr, tuple(sorted(names)))
        else:
            setattr(registry, attr, names)
    return registry


class ProgramIndex:
    """The pass-1 symbol table shared by every pass-2 rule."""

    def __init__(self) -> None:
        #: ``module.Class`` → :class:`ClassInfo`.
        self.classes: dict[str, ClassInfo] = {}
        #: ``(module, function)`` → :class:`FunctionInfo`.
        self.functions: dict[tuple[str, str], FunctionInfo] = {}
        #: Declared telemetry names; ``None`` when no registry module
        #: was part of the analyzed file set.
        self.names: NameRegistry | None = None
        #: Modules indexed, for cheap membership tests.
        self.modules: set[str] = set()

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, contexts: list["FileContext"]) -> "ProgramIndex":
        index = cls()
        for context in contexts:
            index.add_file(context.module, context.tree)
        return index

    def add_file(self, module: str, tree: ast.Module) -> None:
        self.modules.add(module)
        if module == "repro.obs.names" or module.endswith(".obs.names"):
            self.names = _parse_name_registry(module, tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[(module, stmt.name)] = FunctionInfo(
                    name=stmt.name,
                    module=module,
                    node=stmt,
                    fsyncs=calls_fsync(stmt),
                )
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(module, stmt)

    def _add_class(self, module: str, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, module=module, node=node)
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info.methods[stmt.name] = stmt
            if _writes_attr(stmt, "_version"):
                info.version_bumpers.add(stmt.name)
            if calls_fsync(stmt):
                info.fsync_methods.add(stmt.name)
            if stmt.name in ("close", "__exit__", "__del__"):
                info.manages_resources = True
        self.classes[info.qualname] = info

    # -- queries -----------------------------------------------------------------

    def classes_in_module(self, module: str) -> list[ClassInfo]:
        return [c for c in self.classes.values() if c.module == module]

    def function_fsyncs(self, module: str, name: str) -> bool:
        info = self.functions.get((module, name))
        return info is not None and info.fsyncs
