"""CLQ001 — import layering.

The CLUSEQ hot path (``repro.core``) must stay dependency-light so a
production deployment can ship the clustering engine without the
experiment harnesses, the CLI, or the evaluation stack; and the
observability layer (``repro.obs``) must import *only* the standard
library so instrumentation can never drag numpy/scipy into a context
that just wants a logger. The batch kernel (``repro.core.backends``) is
a serving accelerator: only ``repro.serve`` imports it, and every other
package scores with the reference DP or reads the trees directly, so
``import repro`` never loads it. No ``repro`` module imports scipy at
module level: it would more than double the start-up of every
``cluseq`` command and of ``cluseq serve``, and its one caller (the
Hungarian cluster mapping) imports it where it runs.
"""

from __future__ import annotations

import ast
import sys
from collections.abc import Iterator

from ..engine import FileContext, Rule, Violation, register

#: Packages the core layer must never depend on.
CORE_FORBIDDEN = (
    "repro.experiments",
    "repro.cli",
    "repro.evaluation",
    "repro.stream",
    "repro.serve",
    "repro.shard",
)

#: Top-level modules the obs layer may import besides the stdlib.
OBS_ALLOWED_PREFIX = "repro.obs"

#: The batch-kernel package. Only ``repro.serve`` (and the package
#: itself) may import it.
KERNEL_PACKAGE = "repro.core.backends"

#: ``repro.*`` prefixes the scoring-backend subpackage may depend on —
#: the core layer it accelerates, the shared typing aliases, and obs
#: for counters. Backends are a *leaf* of core: letting them reach
#: into sequences/stream/evaluation would quietly invert the layering
#: the rest of this rule protects.
BACKENDS_ALLOWED_PREFIXES = (
    "repro.core",
    "repro.typing",
    "repro.obs",
)

#: ``repro.*`` prefixes the stream layer may depend on — the batch
#: engine and everything below it, never the CLI/experiments/evaluation
#: stack above.
STREAM_ALLOWED_PREFIXES = (
    "repro.stream",
    "repro.core",
    "repro.sequences",
    "repro.obs",
    "repro.typing",
)

#: ``repro.*`` prefixes the serving layer may depend on — everything
#: below it (engine, stream checkpoints, sequences, obs, typing) but
#: never the CLI/experiments/evaluation stack beside it. Nothing in
#: the engine imports ``repro.serve`` back (CORE_FORBIDDEN plus the
#: stream/backends/obs allowlists, which never listed it).
SERVE_ALLOWED_PREFIXES = (
    "repro.serve",
    "repro.core",
    "repro.stream",
    "repro.sequences",
    "repro.obs",
    "repro.typing",
)

#: ``repro.*`` prefixes the sharding layer may depend on — the stream
#: engine it scales out and everything below it. The CLI imports
#: ``repro.shard``; nothing below shard may import back up into it
#: (``repro.shard`` is in CORE_FORBIDDEN and absent from the
#: stream/serve/backends allowlists).
SHARD_ALLOWED_PREFIXES = (
    "repro.shard",
    "repro.stream",
    "repro.core",
    "repro.sequences",
    "repro.obs",
    "repro.typing",
)

#: Third-party packages no ``repro`` module may import at module level;
#: an import inside a function body runs only when that function does.
DEFERRED_PACKAGES = ("scipy",)

if sys.version_info >= (3, 10):
    _STDLIB = frozenset(sys.stdlib_module_names)
else:  # pragma: no cover - py39 fallback for the CI matrix
    import distutils.sysconfig
    import os

    _std_dir = distutils.sysconfig.get_python_lib(standard_lib=True)
    _names = {"sys", "builtins", "itertools", "time", "math", "gc", "marshal"}
    for _entry in os.listdir(_std_dir):
        if _entry.endswith(".py"):
            _names.add(_entry[:-3])
        elif "." not in _entry:
            _names.add(_entry)
    _STDLIB = frozenset(_names)


def _absolute_targets(
    node: ast.stmt, package: str
) -> list[tuple[str, ast.stmt]]:
    """Absolute dotted module names a statement imports."""
    targets: list[tuple[str, ast.stmt]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            targets.append((alias.name, node))
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            base = node.module or ""
        else:
            # Resolve ``from ..x import y`` against the file's package.
            parts = package.split(".") if package else []
            if node.level - 1 > 0:
                parts = parts[: -(node.level - 1)] if node.level - 1 <= len(parts) else []
            base = ".".join(parts)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        if node.module is None:
            # ``from . import similarity`` — each name is a submodule.
            for alias in node.names:
                targets.append(
                    (f"{base}.{alias.name}" if base else alias.name, node)
                )
        elif base:
            targets.append((base, node))
    return targets


def _function_level_imports(tree: ast.AST) -> set[int]:
    """``id`` of every import statement inside a function body."""
    inner: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner.update(
                id(stmt)
                for stmt in ast.walk(node)
                if isinstance(stmt, (ast.Import, ast.ImportFrom))
            )
    return inner


@register
class ImportLayeringRule(Rule):
    rule_id = "CLQ001"
    summary = (
        "core must not import experiments/cli/evaluation/stream/serve/shard; "
        "core.backends only core/typing/obs; "
        "only serve imports core.backends; "
        "stream only core/sequences/obs; "
        "serve only core/stream/sequences/obs; "
        "shard only stream/core/sequences/obs; obs stdlib only; "
        "scipy only inside a function"
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        in_core = context.in_package("repro.core")
        in_obs = context.in_package("repro.obs")
        in_stream = context.in_package("repro.stream")
        in_serve = context.in_package("repro.serve")
        in_shard = context.in_package("repro.shard")
        in_backends = context.in_package(KERNEL_PACKAGE)
        if not context.in_package("repro"):
            return
        function_level = _function_level_imports(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target, stmt in _absolute_targets(node, context.package):
                if (
                    target.split(".", 1)[0] in DEFERRED_PACKAGES
                    and id(node) not in function_level
                ):
                    yield self.violation(
                        context,
                        stmt,
                        f"{context.module} must not import {target} at module "
                        "level (import it inside the function that needs it, "
                        "so the CLI and serve start-up never load it)",
                    )
                if in_core:
                    for forbidden in CORE_FORBIDDEN:
                        if target == forbidden or target.startswith(forbidden + "."):
                            yield self.violation(
                                context,
                                stmt,
                                f"repro.core must not import {target} "
                                "(layering: core -> obs/sequences only)",
                            )
                if not (in_serve or in_backends):
                    if target == KERNEL_PACKAGE or target.startswith(
                        KERNEL_PACKAGE + "."
                    ):
                        yield self.violation(
                            context,
                            stmt,
                            f"{context.module} must not import {target} "
                            "(the batch kernel is serve only; everything "
                            "else scores with the reference DP)",
                        )
                if in_backends:
                    top = target.split(".", 1)[0]
                    if top == "repro" and not any(
                        target == prefix or target.startswith(prefix + ".")
                        for prefix in BACKENDS_ALLOWED_PREFIXES
                    ):
                        yield self.violation(
                            context,
                            stmt,
                            f"repro.core.backends must not import {target} "
                            "(layering: backends -> core/typing/obs only)",
                        )
                if in_stream:
                    top = target.split(".", 1)[0]
                    if top == "repro" and not any(
                        target == prefix or target.startswith(prefix + ".")
                        for prefix in STREAM_ALLOWED_PREFIXES
                    ):
                        yield self.violation(
                            context,
                            stmt,
                            f"repro.stream must not import {target} "
                            "(layering: stream -> core/sequences/obs only)",
                        )
                if in_serve:
                    top = target.split(".", 1)[0]
                    if top == "repro" and not any(
                        target == prefix or target.startswith(prefix + ".")
                        for prefix in SERVE_ALLOWED_PREFIXES
                    ):
                        yield self.violation(
                            context,
                            stmt,
                            f"repro.serve must not import {target} "
                            "(layering: serve -> core/stream/sequences/obs "
                            "only)",
                        )
                if in_shard:
                    top = target.split(".", 1)[0]
                    if top == "repro" and not any(
                        target == prefix or target.startswith(prefix + ".")
                        for prefix in SHARD_ALLOWED_PREFIXES
                    ):
                        yield self.violation(
                            context,
                            stmt,
                            f"repro.shard must not import {target} "
                            "(layering: shard -> stream/core/sequences/obs "
                            "only)",
                        )
                if in_obs:
                    top = target.split(".", 1)[0]
                    if top != "repro" and top not in _STDLIB:
                        yield self.violation(
                            context,
                            stmt,
                            f"repro.obs may only import the stdlib, not {target}",
                        )
                    elif top == "repro" and not (
                        target == OBS_ALLOWED_PREFIX
                        or target.startswith(OBS_ALLOWED_PREFIX + ".")
                    ):
                        yield self.violation(
                            context,
                            stmt,
                            "repro.obs must not import the rest of the "
                            f"package ({target}) — obs is the bottom layer",
                        )
