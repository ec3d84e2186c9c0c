"""CLQ008 — durability protocol in ``repro.stream`` (flow-sensitive).

Crash recovery is bit-identical only because every durable byte in the
streaming subsystem moves through exactly two disciplined writers
(docs/STREAMING.md): the fsynced write-ahead journal and the
write→fsync→``os.replace`` atomic checkpoint. A bare
``open(path, "w")`` anywhere else in ``repro.stream`` is a torn-state
bug waiting for a crash, and a checkpoint-style helper that replaces
before it fsyncs can publish a file whose blocks never hit the disk.

Two checks, scoped to non-test ``repro.stream`` *and* ``repro.shard``
modules (shards run in memory and write nothing, so a file write
appearing there must follow the same protocol):

1. **Approved-writer containment.** Any write-mode ``open(...)`` /
   ``Path.open("w")`` — and any ``.write_text`` / ``.write_bytes``
   call, which cannot fsync at all — must sit inside an approved
   writer: a function that itself calls ``os.fsync``, or a method of a
   class with an fsync-disciplined method (``StreamJournal`` opens in
   ``_ensure_open`` and fsyncs in ``_write_line``; the shared handle
   makes that class-level discipline). The approved-writer registry
   comes from pass 1 (:class:`~tools.checkers.symbols.ProgramIndex`).

2. **Protocol ordering.** In every function that calls
   ``os.replace(...)``, an ``os.fsync(...)`` must have executed on
   *every* path from function entry to the replace (forward
   must-analysis over the CFG). An fsync that only happens on one
   branch of a conditional — or before an early return — does not
   count.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..cfg import build_cfg, walk_element
from ..dataflow import ForwardMust
from ..engine import FileContext, Rule, Violation, register
from ..symbols import calls_fsync, dotted_name

#: ``open`` mode strings that create or mutate the target file.
_WRITE_MODE_CHARS = frozenset("wax+")

#: Write calls that can never be fsynced (no handle is exposed).
_HANDLE_FREE_WRITERS = frozenset({"write_text", "write_bytes"})


def _write_mode(call: ast.Call) -> bool:
    """Whether *call* (an ``open``-like call) opens for writing."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in _WRITE_MODE_CHARS for c in mode.value)
    return True  # dynamic mode: assume the worst


def _is_open_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return True
    if isinstance(func, ast.Attribute) and func.attr == "open":
        # Path.open / self.path.open; ``os.open`` is flag-based and
        # handled by the dynamic-mode fallback if ever used here.
        return True
    return False


def _is_os_call(node: ast.AST, attr: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.split(".")[-1] == attr


def _iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
    """Top-level functions and class methods, with their owning class."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt, None
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub, stmt


@register
class DurabilityRule(Rule):
    rule_id = "CLQ008"
    summary = (
        "stream/shard file writes only via fsync-disciplined helpers, "
        "fsync before os.replace"
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code or not (
            context.in_package("repro.stream")
            or context.in_package("repro.shard")
        ):
            return
        program = context.program
        for func, owner in _iter_functions(context.tree):
            fsync_here = calls_fsync(func)
            class_disciplined = False
            if owner is not None and program is not None:
                info = program.classes.get(f"{context.module}.{owner.name}")
                class_disciplined = bool(info and info.fsync_methods)
            approved = fsync_here or class_disciplined

            replace_sites: list[tuple[ast.Call, object, int]] = []
            cfg = build_cfg(func)
            for block, index, element in cfg.iter_elements():
                for node in walk_element(element):
                    if not isinstance(node, ast.Call):
                        continue
                    if _is_open_call(node) and _write_mode(node) and not approved:
                        yield self.violation(
                            context,
                            node,
                            "write-mode open() outside an approved durability "
                            "helper — route durable writes through the "
                            "journal/checkpoint helpers (write → fsync → "
                            "os.replace) so crash recovery stays bit-identical",
                        )
                    func_expr = node.func
                    if (
                        isinstance(func_expr, ast.Attribute)
                        and func_expr.attr in _HANDLE_FREE_WRITERS
                    ):
                        yield self.violation(
                            context,
                            node,
                            f".{func_expr.attr}() cannot be fsynced — open a "
                            "handle via the approved journal/checkpoint "
                            "helpers instead",
                        )
                    if _is_os_call(node, "replace"):
                        replace_sites.append((node, block, index))

            if replace_sites:
                forward = ForwardMust(cfg, lambda n: _is_os_call(n, "fsync"))
                for call, block, index in replace_sites:
                    if not forward.before(block, index):  # type: ignore[arg-type]
                        yield self.violation(
                            context,
                            call,
                            "os.replace() not preceded by os.fsync() on every "
                            "path — a crash can publish a checkpoint whose "
                            "data never reached the disk",
                        )
