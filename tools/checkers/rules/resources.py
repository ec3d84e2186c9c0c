"""CLQ009 — resource discipline (flow-sensitive).

Leaked file handles corrupt the streaming subsystem's durability story
(an unclosed journal handle keeps buffered bytes out of recovery),
leaked lock acquisitions deadlock their next taker, and leaked
executors or shared-memory segments outlive the run (orphan worker
processes, stale ``/dev/shm`` files). Acquisitions are method calls
(``open``/``acquire``) and the constructors of known
resource-owning classes (executors, ``SharedMemory``). The rule checks every acquisition site against the
small set of ownership patterns the codebase sanctions:

* **``with`` item** — ``with open(p) as f:`` / ``with lock:``. The
  runtime releases on every path; nothing more to prove.
* **Local + close on all paths** — ``h = open(p)`` followed by a
  ``h.close()`` / ``h.release()`` that a backward must-analysis shows
  on *every* path to *every* exit, including raising ones. In practice
  that means ``try``/``finally`` (the CFG duplicates ``finally``
  bodies per exit kind, so straight-line closes that can be skipped by
  an early ``return`` or ``raise`` are correctly rejected).
* **Stored on a resource-managing class** — ``self._file = open(p)``
  where the owning class defines ``close``/``__exit__``/``__del__``
  (the exporter pattern); lifetime is the object's problem, and CLQ009
  checks the class *has* taken on that problem.
* **Ownership transfer** — ``return open(p)``, or a local handle that
  is returned (``repro.sequences.io`` hands handles to callers, who
  use ``with``).

Anything else — most commonly the inline leak
``open(p).read()`` / ``open(p, "w").write(...)`` — is a finding.

Profiles: inside the ``repro`` package the full analysis runs. For
test/benchmark code (and anything outside the package) only the
inline-leak check applies — fixtures may stash handles in locals that
pytest finalizers close, which the analysis cannot see.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..cfg import Block, build_cfg, walk_element
from ..dataflow import BackwardMust
from ..engine import FileContext, Rule, Violation, register

#: Method names that release an acquired resource.
_CLOSERS = frozenset({"close", "release", "__exit__"})

#: Attribute-call names that acquire a resource needing release.
_ACQUIRERS = frozenset({"open", "acquire"})

#: Constructors whose *instances* are the resource: executors own
#: worker threads or processes, shared-memory segments own
#: kernel-backed mappings. Matched by class name whether called bare
#: (``ProcessPoolExecutor(...)``) or qualified
#: (``futures.ProcessPoolExecutor(...)``).
_CONSTRUCTOR_ACQUIRERS = frozenset(
    {
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "SharedMemory",
    }
)


def _is_acquisition(node: ast.AST) -> ast.Call | None:
    """The call if *node* acquires a handle/lock, else ``None``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and (
        func.id == "open" or func.id in _CONSTRUCTOR_ACQUIRERS
    ):
        return node
    if isinstance(func, ast.Attribute) and (
        func.attr in _ACQUIRERS or func.attr in _CONSTRUCTOR_ACQUIRERS
    ):
        return node
    return None


def _binds_call(value: ast.expr | None, call: ast.Call) -> bool:
    """Whether *value* binds *call*'s result, unwrapping one ``IfExp``.

    ``pool = ProcessPoolExecutor(w) if cond else None`` binds the pool to a
    name exactly like the unconditional spelling does; the conditional
    arm must not demote it to an (unbindable) inline leak.
    """
    if value is call:
        return True
    return isinstance(value, ast.IfExp) and (
        value.body is call or value.orelse is call
    )


def _with_item_exprs(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[int]:
    """``id()`` of every ``with``-item context expression in *func*."""
    ids: set[int] = set()
    for stmt in func.body:
        for node in walk_element(stmt):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        ids.add(id(sub))
    return ids


def _returned_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Local names whose value is (part of) some ``return`` expression."""
    names: set[str] = set()
    for stmt in func.body:
        for node in walk_element(stmt):
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
    return names


def _closes_name(node: ast.AST, name: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _CLOSERS
        and isinstance(func.value, ast.Name)
        and func.value.id == name
    )


def _iter_functions(tree: ast.Module) -> Iterator[
    tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]
]:
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt, None
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub, stmt


@register
class ResourceDisciplineRule(Rule):
    rule_id = "CLQ009"
    summary = "handles/locks released on every path (with, try/finally, or owner class)"

    def check(self, context: FileContext) -> Iterator[Violation]:
        full = context.in_package("repro") and not context.is_test_code
        for func, owner in _iter_functions(context.tree):
            yield from self._check_function(context, func, owner, full)

    def _check_function(
        self,
        context: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: ast.ClassDef | None,
        full: bool,
    ) -> Iterator[Violation]:
        with_exprs = _with_item_exprs(func)
        returned = _returned_names(func)
        cfg = build_cfg(func)
        backward_cache: dict[str, BackwardMust] = {}

        def closed_on_all_paths(name: str, block: Block, index: int) -> bool:
            analysis = backward_cache.get(name)
            if analysis is None:
                analysis = BackwardMust(
                    cfg,
                    lambda n: _closes_name(n, name),
                    exits=cfg.exits(include_raises=True),
                )
                backward_cache[name] = analysis
            return analysis.after(block, index)

        for block, index, element in cfg.iter_elements():
            for node in walk_element(element):
                call = _is_acquisition(node)
                if call is None or id(call) in with_exprs:
                    continue
                verdict = self._classify(
                    context, call, element, owner, returned,
                    lambda name: closed_on_all_paths(name, block, index),
                    full,
                )
                if verdict is not None:
                    yield verdict

    def _classify(
        self,
        context: FileContext,
        call: ast.Call,
        element: ast.AST,
        owner: ast.ClassDef | None,
        returned: set[str],
        closed_on_all_paths: object,
        full: bool,
    ) -> Violation | None:
        what = (
            call.func.id
            if isinstance(call.func, ast.Name)
            else getattr(call.func, "attr", "open")
        )
        # Ownership transfer: the call is the returned value itself, or
        # one component of a returned tuple (``return open(p), True``).
        # ``return open(p).read()`` still leaks — the handle is not
        # what crosses the boundary.
        if isinstance(element, ast.Return):
            value = element.value
            if _binds_call(value, call):
                return None
            if isinstance(value, ast.Tuple) and call in value.elts:
                return None
        targets: list[ast.expr] = []
        if isinstance(element, ast.Assign) and _binds_call(element.value, call):
            targets = list(element.targets)
        elif isinstance(element, ast.AnnAssign) and _binds_call(
            element.value, call
        ):
            targets = [element.target]
        if targets:
            if len(targets) == 1:
                target = targets[0]
                if isinstance(target, ast.Attribute):
                    # Stored on an object: the owner class must manage
                    # resource lifetimes (close/__exit__/__del__).
                    if not full:
                        return None
                    program = context.program
                    if owner is not None and program is not None:
                        info = program.classes.get(f"{context.module}.{owner.name}")
                        if info is not None and info.manages_resources:
                            return None
                    return self.violation(
                        context,
                        call,
                        f"{what}() result stored on an object with no "
                        "close()/__exit__() — give the owning class a "
                        "lifecycle method or use a with block",
                    )
                if isinstance(target, ast.Name):
                    if not full:
                        return None
                    if target.id in returned:
                        return None  # ownership transferred to the caller
                    if closed_on_all_paths(target.id):  # type: ignore[operator]
                        return None
                    return self.violation(
                        context,
                        call,
                        f"{what}() assigned to {target.id!r} but not "
                        "released on every path — use a with block or "
                        "close it in a finally",
                    )
            return None  # tuple/star targets: not tracked
        # Inline use: the handle is never bound, so it can never be
        # closed deterministically. Flagged in every profile.
        return self.violation(
            context,
            call,
            f"inline {what}() call leaks its handle — bind it in a "
            "with block (or close it explicitly)",
        )
