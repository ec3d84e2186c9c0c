"""Tests for the v2 flow-sensitive analyzer (``tools.checkers``).

Covers the CFG builder and the must-dataflow engine construct by
construct (branches, loops with ``break``/``continue``, ``try`` in all
its forms, ``with``, nested functions, early ``return``/``raise``),
then each whole-program rule (CLQ007–CLQ010) with firing, passing and
suppressed fixtures, and finally the baseline and SARIF plumbing.
"""

from __future__ import annotations

import ast
import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.checkers import Checker, get_rule  # noqa: E402
from tools.checkers.cfg import build_cfg, walk_element  # noqa: E402
from tools.checkers.cli import main as cli_main  # noqa: E402
from tools.checkers.dataflow import BackwardMust, ForwardMust  # noqa: E402
from tools.checkers.sarif import to_sarif  # noqa: E402
from tools.checkers.symbols import ProgramIndex  # noqa: E402
from tools.checkers.engine import FileContext  # noqa: E402


# -- helpers ------------------------------------------------------------------


def _func(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    assert isinstance(func, ast.FunctionDef)
    return func


def _is_mark(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "mark"
    )


def _find_element(cfg, needle: str):
    """The (block, index) of the first element containing Name *needle*."""
    for block, index, element in cfg.iter_elements():
        for node in walk_element(element):
            if isinstance(node, ast.Name) and node.id == needle:
                return block, index
    raise AssertionError(f"no element mentions {needle!r}")


def forward_at(source: str, needle: str = "probe") -> bool:
    func = _func(source)
    cfg = build_cfg(func)
    block, index = _find_element(cfg, needle)
    return ForwardMust(cfg, _is_mark).before(block, index)


def backward_at(source: str, needle: str = "probe", include_raises: bool = True) -> bool:
    func = _func(source)
    cfg = build_cfg(func)
    block, index = _find_element(cfg, needle)
    exits = cfg.exits(include_raises=include_raises)
    return BackwardMust(cfg, _is_mark, exits=exits).after(block, index)


def check_source(tmp_path: Path, relpath: str, source: str, rule_id: str):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return Checker(rules=[get_rule(rule_id)]).check_file(path)


def check_tree(tmp_path: Path, files: dict[str, str], rule_id: str):
    """Write *files* under ``tmp_path`` and run one rule whole-program."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    checker = Checker(rules=[get_rule(rule_id)])
    violations, _ = checker.check_targets([tmp_path])
    return violations


# -- CFG + dataflow ------------------------------------------------------------


class TestForwardMust:
    def test_straight_line(self):
        assert forward_at(
            """
            def f():
                mark()
                probe = 1
            """
        )

    def test_if_without_else_is_not_must(self):
        assert not forward_at(
            """
            def f(c):
                if c:
                    mark()
                probe = 1
            """
        )

    def test_if_else_both_arms(self):
        assert forward_at(
            """
            def f(c):
                if c:
                    mark()
                else:
                    mark()
                probe = 1
            """
        )

    def test_elif_chain_missing_default(self):
        assert not forward_at(
            """
            def f(c):
                if c == 1:
                    mark()
                elif c == 2:
                    mark()
                probe = 1
            """
        )

    def test_loop_body_may_not_run(self):
        assert not forward_at(
            """
            def f(items):
                for x in items:
                    mark()
                probe = 1
            """
        )

    def test_before_loop_survives_loop(self):
        assert forward_at(
            """
            def f(items):
                mark()
                for x in items:
                    pass
                probe = 1
            """
        )

    def test_while_true_break_can_skip(self):
        assert not forward_at(
            """
            def f(c):
                while True:
                    if c:
                        break
                    mark()
                probe = 1
            """
        )

    def test_continue_can_skip(self):
        # The continue path loops back to the header, which can exit.
        assert not forward_at(
            """
            def f(items):
                for x in items:
                    if x:
                        continue
                    mark()
                probe = 1
            """
        )

    def test_nested_def_is_opaque(self):
        assert not forward_at(
            """
            def f():
                def inner():
                    mark()
                probe = 1
            """
        )

    def test_with_item_is_an_element(self):
        assert forward_at(
            """
            def f(p):
                with mark():
                    probe = 1
            """
        )

    def test_same_element_does_not_cover_itself(self):
        # The probe element precedes any later mark.
        assert not forward_at(
            """
            def f():
                probe = 1
                mark()
            """
        )


class TestBackwardMust:
    def test_straight_line(self):
        assert backward_at(
            """
            def f():
                probe = 1
                mark()
            """
        )

    def test_early_return_skips(self):
        assert not backward_at(
            """
            def f(c):
                probe = 1
                if c:
                    return 0
                mark()
            """
        )

    def test_raise_path_counts_by_default(self):
        assert not backward_at(
            """
            def f(c):
                probe = 1
                if c:
                    raise ValueError("boom")
                mark()
            """
        )

    def test_raise_path_ignorable(self):
        assert backward_at(
            """
            def f(c):
                probe = 1
                if c:
                    raise ValueError("boom")
                mark()
            """,
            include_raises=False,
        )

    def test_finally_covers_return_paths(self):
        # The key precision property: `return` inside try still flows
        # through its own copy of the finally body.
        assert backward_at(
            """
            def f(c):
                probe = 1
                try:
                    if c:
                        return 0
                    return 1
                finally:
                    mark()
            """
        )

    def test_straightline_close_does_not_cover_raise_in_try(self):
        # A raise inside try/except escapes via the bare handler re-raise.
        assert not backward_at(
            """
            def f(c):
                probe = 1
                try:
                    step()
                except ValueError:
                    raise
                mark()
            """
        )

    def test_handler_with_mark_restores_cover(self):
        assert backward_at(
            """
            def f(c):
                probe = 1
                try:
                    step()
                except ValueError:
                    mark()
                    return 0
                mark()
            """
        )

    def test_loop_break_skips_mark(self):
        assert not backward_at(
            """
            def f(items):
                probe = 1
                for x in items:
                    if x:
                        break
                    mark()
                    return x
                return 0
            """
        )


# -- CLQ007: cache-invalidation soundness --------------------------------------


_TREE_PRELUDE = """
class Tree:
    def __init__(self):
        self._version = 0
        self.count = 0
        self.root = None

    def _invalidate(self):
        self._version += 1
"""


class TestCacheInvalidation:
    def test_mutation_with_early_return_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/t.py",
            _TREE_PRELUDE
            + """
    def bad(self, n):
        self.count += n
        if n > 0:
            return n
        self._invalidate()
""",
            "CLQ007",
        )
        assert [v.rule_id for v in violations] == ["CLQ007"]
        assert "_invalidate()" in violations[0].message

    def test_mutate_then_raise_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/t.py",
            _TREE_PRELUDE
            + """
    def bad(self, n):
        self.count += n
        if n < 0:
            raise ValueError("n")
        self._invalidate()
""",
            "CLQ007",
        )
        assert [v.rule_id for v in violations] == ["CLQ007"]

    def test_alias_mutation_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/t.py",
            _TREE_PRELUDE
            + """
    def bad(self, s):
        nxt = self.root.next_counts
        nxt[s] = nxt.get(s, 0) + 1
""",
            "CLQ007",
        )
        assert [v.rule_id for v in violations] == ["CLQ007"]

    def test_container_method_mutation_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/t.py",
            _TREE_PRELUDE
            + """
    def bad(self, s):
        self.children.pop(s, None)
""",
            "CLQ007",
        )
        assert [v.rule_id for v in violations] == ["CLQ007"]

    def test_invalidate_first_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/t.py",
            _TREE_PRELUDE
            + """
    def decay(self, n):
        self._invalidate()
        self.count -= n
        if self.count < 0:
            raise ValueError("negative")
""",
            "CLQ007",
        )
        assert violations == []

    def test_invalidate_after_on_all_paths_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/t.py",
            _TREE_PRELUDE
            + """
    def load(self, n):
        self.count = n
        self._invalidate()
""",
            "CLQ007",
        )
        assert violations == []

    def test_class_without_version_is_out_of_scope(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/t.py",
            """
class Plain:
    def bad(self, n):
        self.count += n
""",
            "CLQ007",
        )
        assert violations == []

    def test_suppression_comment(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/t.py",
            _TREE_PRELUDE
            + """
    def recount(self):
        self.count = 0  # cluseq: ignore[CLQ007]
""",
            "CLQ007",
        )
        assert violations == []

    def test_test_code_exempt(self, tmp_path):
        violations = check_source(
            tmp_path,
            "tests/test_t.py",
            _TREE_PRELUDE
            + """
    def bad(self, n):
        self.count += n
""",
            "CLQ007",
        )
        assert violations == []


# -- CLQ008: durability protocol -----------------------------------------------


class TestDurability:
    def test_unapproved_write_open_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/w.py",
            """
def dump(path, data):
    with open(path, "w") as fh:
        fh.write(data)
""",
            "CLQ008",
        )
        assert [v.rule_id for v in violations] == ["CLQ008"]

    def test_fsyncing_function_is_approved(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/w.py",
            """
import os

def dump(path, data):
    with open(path, "w") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
""",
            "CLQ008",
        )
        assert violations == []

    def test_fsync_discipline_is_class_wide(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/w.py",
            """
import os

class Journal:
    def close(self):
        self._fh.close()

    def _ensure(self, path):
        self._fh = open(path, "a")

    def _write(self, line):
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
""",
            "CLQ008",
        )
        assert violations == []

    def test_read_open_is_fine(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/w.py",
            """
def load(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()
""",
            "CLQ008",
        )
        assert violations == []

    def test_write_text_always_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/w.py",
            """
def dump(path, data):
    path.write_text(data)
""",
            "CLQ008",
        )
        assert [v.rule_id for v in violations] == ["CLQ008"]
        assert "write_text" in violations[0].message

    def test_replace_with_branch_only_fsync_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/w.py",
            """
import os

def swap(tmp, dst, profiled):
    with open(tmp, "w") as fh:
        fh.write("x")
        if profiled:
            os.fsync(fh.fileno())
    os.replace(tmp, dst)
""",
            "CLQ008",
        )
        assert [v.rule_id for v in violations] == ["CLQ008"]
        assert "os.replace" in violations[0].message

    def test_replace_with_unconditional_fsync_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/stream/w.py",
            """
import os

def swap(tmp, dst):
    with open(tmp, "w") as fh:
        fh.write("x")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, dst)
""",
            "CLQ008",
        )
        assert violations == []

    def test_outside_stream_package_is_out_of_scope(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/w.py",
            """
def dump(path, data):
    with open(path, "w") as fh:
        fh.write(data)
""",
            "CLQ008",
        )
        assert violations == []


# -- CLQ009: resource discipline -----------------------------------------------


class TestResourceDiscipline:
    def test_inline_leak_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def slurp(path):
    return open(path).read()
""",
            "CLQ009",
        )
        assert [v.rule_id for v in violations] == ["CLQ009"]
        assert "inline" in violations[0].message

    def test_with_block_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def slurp(path):
    with open(path) as fh:
        return fh.read()
""",
            "CLQ009",
        )
        assert violations == []

    def test_try_finally_close_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def slurp(path):
    fh = open(path)
    try:
        return fh.read()
    finally:
        fh.close()
""",
            "CLQ009",
        )
        assert violations == []

    def test_close_skipped_by_early_return_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def slurp(path, flag):
    fh = open(path)
    if flag:
        return None
    data = fh.read()
    fh.close()
    return data
""",
            "CLQ009",
        )
        assert [v.rule_id for v in violations] == ["CLQ009"]

    def test_straightline_close_without_finally_fires(self, tmp_path):
        # fh.read() inside try/except can jump to the handler and
        # return without closing.
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def slurp(path):
    fh = open(path)
    try:
        data = fh.read()
    except OSError:
        return None
    fh.close()
    return data
""",
            "CLQ009",
        )
        assert [v.rule_id for v in violations] == ["CLQ009"]

    def test_ownership_transfer_return_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def acquire(path):
    return open(path)

def acquire_tuple(path):
    return open(path), True

def acquire_named(path):
    fh = open(path)
    return fh
""",
            "CLQ009",
        )
        assert violations == []

    def test_self_attr_on_lifecycle_class_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
class Exporter:
    def __init__(self, path):
        self._fh = open(path, "w")

    def close(self):
        self._fh.close()
""",
            "CLQ009",
        )
        assert violations == []

    def test_self_attr_without_lifecycle_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
class Exporter:
    def __init__(self, path):
        self._fh = open(path, "w")
""",
            "CLQ009",
        )
        assert [v.rule_id for v in violations] == ["CLQ009"]
        assert "close()/__exit__()" in violations[0].message

    def test_lock_acquire_release_in_finally_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def locked(lock):
    handle = lock.acquire()
    try:
        return work()
    finally:
        handle.release()
""",
            "CLQ009",
        )
        assert violations == []

    def test_test_code_only_checks_inline_leaks(self, tmp_path):
        violations = check_source(
            tmp_path,
            "tests/test_r.py",
            """
def test_fixture(path):
    fh = open(path)  # closed by a pytest finalizer the CFG cannot see
    assert fh

def test_leak(path):
    assert open(path).read() == "x"
""",
            "CLQ009",
        )
        assert len(violations) == 1
        assert "inline" in violations[0].message

    def test_leaked_pool_constructor_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def score(tasks, parallel):
    pool = ProcessPoolExecutor(2) if parallel else None
    results = list(pool.map(len, tasks))
    return results
""",
            "CLQ009",
        )
        assert [v.rule_id for v in violations] == ["CLQ009"]
        assert "ProcessPoolExecutor" in violations[0].message
        # The conditional binding is a named local, not an inline leak.
        assert "inline" not in violations[0].message

    def test_conditional_pool_on_closing_owner_passes(self, tmp_path):
        # The IfExp arm of an attribute binding: the owner's close()
        # takes on the pool's lifetime exactly as for the plain call.
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
class Service:
    def __init__(self, workers):
        self._pool = ProcessPoolExecutor(workers) if workers > 0 else None

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
""",
            "CLQ009",
        )
        assert violations == []

    def test_pool_with_block_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def score(tasks):
    with ProcessPoolExecutor(2) as pool:
        return list(pool.map(len, tasks))
""",
            "CLQ009",
        )
        assert violations == []

    def test_qualified_executor_constructor_fires(self, tmp_path):
        # The Attribute arm: futures.ProcessPoolExecutor(...) is the
        # same acquisition as the bare name.
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
from concurrent import futures

def fan_out(tasks):
    executor = futures.ProcessPoolExecutor(2)
    handles = [executor.submit(t) for t in tasks]
    return [h.result() for h in handles]
""",
            "CLQ009",
        )
        assert [v.rule_id for v in violations] == ["CLQ009"]
        assert "ProcessPoolExecutor" in violations[0].message

    def test_shared_memory_closed_on_all_paths_passes(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def attach(name):
    segment = SharedMemory(name=name)
    try:
        return bytes(segment.buf)
    finally:
        segment.close()
""",
            "CLQ009",
        )
        assert violations == []

    def test_shared_memory_leak_fires(self, tmp_path):
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
def attach(name):
    segment = SharedMemory(name=name)
    payload = bytes(segment.buf)
    return payload
""",
            "CLQ009",
        )
        assert [v.rule_id for v in violations] == ["CLQ009"]
        assert "SharedMemory" in violations[0].message

    def test_executor_as_self_attr_with_close_passes(self, tmp_path):
        # The executor lives on a resources object whose close()
        # releases it.
        violations = check_source(
            tmp_path,
            "src/repro/core/r.py",
            """
class PoolResources:
    def __init__(self, workers):
        self.executor = ProcessPoolExecutor(workers)

    def close(self):
        self.executor.shutdown()
""",
            "CLQ009",
        )
        assert violations == []


# -- CLQ010: telemetry-name registry -------------------------------------------


_REGISTRY_SRC = """
METRICS = frozenset({"pst.final_nodes", "cluseq.iterations"})
METRIC_PREFIXES = ("span.",)
SPANS = frozenset({"cluseq"})
SPAN_PREFIXES = ("baseline.",)
"""


def _clq010(tmp_path, emitter_source):
    return check_tree(
        tmp_path,
        {
            "src/repro/obs/names.py": _REGISTRY_SRC,
            "src/repro/core/m.py": emitter_source,
        },
        "CLQ010",
    )


class TestMetricRegistry:
    def test_declared_names_pass(self, tmp_path):
        violations = _clq010(
            tmp_path,
            """
def run(metrics, tracer, n):
    metrics.counter("cluseq.iterations", n)
    metrics.gauge("pst.final_nodes", n)
    with tracer.span("cluseq"):
        pass
""",
        )
        assert violations == []

    def test_typod_metric_fires(self, tmp_path):
        violations = _clq010(
            tmp_path,
            """
def run(metrics, n):
    metrics.counter("cluseq.iterattions", n)
""",
        )
        assert [v.rule_id for v in violations] == ["CLQ010"]
        assert "cluseq.iterattions" in violations[0].message

    def test_undeclared_span_fires(self, tmp_path):
        violations = _clq010(
            tmp_path,
            """
def run(tracer):
    with tracer.span("mystery"):
        pass
""",
        )
        assert [v.rule_id for v in violations] == ["CLQ010"]
        assert "span name 'mystery'" in violations[0].message

    def test_fstring_head_resolution(self, tmp_path):
        violations = _clq010(
            tmp_path,
            """
def run(metrics, tracer, name):
    metrics.counter(f"span.{name}", 1)  # declared prefix
    metrics.counter(f"cluseq.iter{name}", 1)  # completable head
    with tracer.span(f"baseline.{name}"):
        pass
    metrics.counter(f"bogus.{name}", 1)  # nothing can complete this
""",
        )
        assert len(violations) == 1
        assert "bogus." in violations[0].message

    def test_non_literal_and_non_string_args_are_skipped(self, tmp_path):
        violations = _clq010(
            tmp_path,
            """
def run(metrics, match, name):
    metrics.counter(name, 1)  # forwarded name: out of scope
    match.span(1)  # re.Match.span — not a telemetry site
""",
        )
        assert violations == []

    def test_quiet_without_registry_module(self, tmp_path):
        violations = check_tree(
            tmp_path,
            {
                "src/repro/core/m.py": """
def run(metrics):
    metrics.counter("totally.bogus", 1)
""",
            },
            "CLQ010",
        )
        assert violations == []

    def test_registry_parses_from_real_module(self):
        names_path = REPO_ROOT / "src" / "repro" / "obs" / "names.py"
        context = FileContext.from_path(names_path)
        index = ProgramIndex.build([context])
        assert index.names is not None
        assert "cluseq.iterations" in index.names.metrics
        assert index.names.resolves_metric("span.cluseq")
        assert index.names.resolves_span("stream.batch")


# -- baseline workflow ---------------------------------------------------------


_MUTABLE_DEFAULT = """
def f(xs=[]):
    return xs
"""


class TestBaseline:
    def _write_target(self, tmp_path, source=_MUTABLE_DEFAULT):
        target = tmp_path / "src" / "repro" / "core" / "b.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        return target

    def test_update_then_filter_roundtrip(self, tmp_path, capsys):
        target = self._write_target(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(
                [str(target), "--select", "CLQ004", "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        data = json.loads(baseline.read_text())
        assert data["version"] == 1 and len(data["findings"]) == 1
        # With the baseline the gate is green again.
        assert (
            cli_main([str(target), "--select", "CLQ004", "--baseline", str(baseline)])
            == 0
        )
        capsys.readouterr()

    def test_fingerprint_survives_edits_above(self, tmp_path, capsys):
        target = self._write_target(tmp_path)
        baseline = tmp_path / "baseline.json"
        cli_main(
            [str(target), "--select", "CLQ004", "--baseline", str(baseline), "--update-baseline"]
        )
        # Insert lines above the finding: line numbers shift, text does not.
        target.write_text(
            "# a new comment\n\n" + target.read_text(), encoding="utf-8"
        )
        assert (
            cli_main([str(target), "--select", "CLQ004", "--baseline", str(baseline)])
            == 0
        )
        capsys.readouterr()

    def test_new_finding_is_not_absorbed(self, tmp_path, capsys):
        target = self._write_target(tmp_path)
        baseline = tmp_path / "baseline.json"
        cli_main(
            [str(target), "--select", "CLQ004", "--baseline", str(baseline), "--update-baseline"]
        )
        target.write_text(
            target.read_text() + "\ndef g(ys={}):\n    return ys\n",
            encoding="utf-8",
        )
        assert (
            cli_main([str(target), "--select", "CLQ004", "--baseline", str(baseline)])
            == 1
        )
        out = capsys.readouterr().out
        assert "CLQ004" in out
        # The baseline itself still holds only the original finding.
        assert len(json.loads(baseline.read_text())["findings"]) == 1

    def test_committed_baseline_is_empty(self):
        committed = REPO_ROOT / "tools" / "checkers" / "baseline.json"
        data = json.loads(committed.read_text())
        assert data["findings"] == []


# -- SARIF export --------------------------------------------------------------


class TestSarif:
    def _sarif_for_violation(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "s.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(_MUTABLE_DEFAULT, encoding="utf-8")
        sarif_path = tmp_path / "out.sarif"
        code = cli_main(
            [str(target), "--select", "CLQ004", "--sarif", str(sarif_path), "--quiet"]
        )
        assert code == 1
        return json.loads(sarif_path.read_text())

    def test_document_structure(self, tmp_path, capsys):
        doc = self._sarif_for_violation(tmp_path)
        capsys.readouterr()
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "cluseq-checkers"
        assert [r["id"] for r in driver["rules"]] == ["CLQ004"]
        (result,) = run["results"]
        assert result["ruleId"] == "CLQ004"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("src/repro/core/s.py")
        assert "\\" not in location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1

    def test_empty_run_is_valid_and_lists_all_rules(self):
        from tools.checkers import all_rules

        doc = to_sarif([], all_rules())
        (run,) = doc["runs"]
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert ids == [f"CLQ{n:03d}" for n in range(1, 11)]
        assert run["results"] == []

    def test_validates_against_sarif_schema_subset(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        doc = self._sarif_for_violation(tmp_path)
        capsys.readouterr()
        # The load-bearing constraints of the published 2.1.0 schema,
        # inlined (CI has no network): required properties, enum'd
        # version, 1-based region coordinates.
        schema = {
            "type": "object",
            "required": ["version", "runs"],
            "properties": {
                "version": {"enum": ["2.1.0"]},
                "runs": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["tool"],
                        "properties": {
                            "tool": {
                                "type": "object",
                                "required": ["driver"],
                                "properties": {
                                    "driver": {
                                        "type": "object",
                                        "required": ["name"],
                                    }
                                },
                            },
                            "results": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["message"],
                                    "properties": {
                                        "message": {
                                            "type": "object",
                                            "required": ["text"],
                                        },
                                        "locations": {
                                            "type": "array",
                                            "items": {
                                                "type": "object",
                                                "properties": {
                                                    "physicalLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "region": {
                                                                "type": "object",
                                                                "properties": {
                                                                    "startLine": {
                                                                        "type": "integer",
                                                                        "minimum": 1,
                                                                    },
                                                                    "startColumn": {
                                                                        "type": "integer",
                                                                        "minimum": 1,
                                                                    },
                                                                },
                                                            }
                                                        },
                                                    }
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        }
        jsonschema.validate(doc, schema)


# -- regression: the real tree stays clean under the flow rules ----------------


class TestRealTree:
    def test_core_and_stream_pass_flow_rules(self):
        checker = Checker(
            rules=[get_rule(r) for r in ("CLQ007", "CLQ008", "CLQ009", "CLQ010")]
        )
        violations, files = checker.check_targets([REPO_ROOT / "src" / "repro"])
        assert violations == []
        assert files > 50
