"""Benchmark-side tracing: spans recorded around calls into each layer.

The program is not edited to trace it. :class:`Tracer` replaces a
layer's public functions and methods with wrappers that record one span
per call: name, start, end and the span that was open when the call
began. Spans stay in memory and are written as JSONL when the run ends.

:func:`self_times` turns the spans into each layer's self time: its
span time minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import Any, NamedTuple


class SpanRecord(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


#: Layer spans of the in-process workloads, as
#: ``(span name, module, attribute path)``. A dotted attribute path is a
#: method; a bare name is a function, wrapped under every name it is
#: bound to in an imported ``repro`` module (``from .similarity import
#: similarity`` makes a binding the wrapper must replace too).
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cluseq.fit", "repro.core.cluseq", "CLUSEQ.fit"),
    ("cluseq.calibrate", "repro.core.cluseq", "CLUSEQ._calibrate_initial_threshold"),
    ("cluseq.recluster", "repro.core.cluseq", "CLUSEQ._recluster_vectorized"),
    ("cluseq.rebuild", "repro.core.cluseq", "CLUSEQ._rebuild_cluster_models"),
    ("seeding.select", "repro.core.seeding", "select_seeds"),
    ("consolidation.consolidate", "repro.core.consolidation", "consolidate"),
    ("similarity", "repro.core.similarity", "similarity"),
    ("backends.prescore", "repro.core.backends.dispatch", "PstBatchScorer.prescore_matrix"),
    ("backends.kernel", "repro.core.backends.dispatch",
     "PstBatchScorer._score_matrix_arrays"),
    ("backends.stack", "repro.core.backends.vectorized", "prepare_stack"),
    ("backends.flatten", "repro.core.backends.flatten", "flatten_pst"),
    ("cluster.absorb", "repro.core.cluster", "Cluster.absorb_segment"),
    ("stream.ingest", "repro.stream.engine", "StreamingCluseq.ingest_batch"),
    ("stream.reseed", "repro.stream.engine", "StreamingCluseq._reseed"),
    ("stream.decay", "repro.stream.engine", "StreamingCluseq._decay"),
    ("shard.ingest", "repro.shard.engine", "ShardedStreamingCluseq.ingest_batch"),
    ("shard.consolidate", "repro.shard.engine", "ShardedStreamingCluseq._consolidate"),
    ("shard.route", "repro.shard.router", "HashRouter.route"),
    ("serve.classify", "repro.serve.registry", "ModelVersion.classify_batch"),
    ("serve.ingest", "repro.serve.app", "ServeApp._ingest"),
    ("cluseq.assign", "repro.core.cluseq", "ClusteringResult.assign_and_absorb"),
)


class Tracer:
    """Records spans around wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        #: Targets that no longer exist in the program (renamed or
        #: deleted); their layers then read 0, so the run reports them.
        self.missing: list[str] = []
        #: Pairs handed to ``PstBatchScorer.prescore_matrix``: the base
        #: of the prescore useful-work ratio.
        self.prescored_pairs = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the body (used for workload roots)."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(SpanRecord(span_id, parent, name, start, end))

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """*func* with a span named *name* recorded around every call."""
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if name == "backends.prescore":
                # prescore_matrix(self, psts, sequences, ...)
                self.prescored_pairs += len(args[1]) * len(args[2])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(SpanRecord(span_id, parent, name, start, end))

        return traced

    def install(self, targets: Iterable[tuple[str, str, str]] = LAYER_TARGETS) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        for name, module_name, path in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if raw is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                # Keep static methods static: the wrapper must not
                # receive the instance as an extra first argument.
                if isinstance(raw, staticmethod):
                    wrapped: object = staticmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, attr, None) is original
                ):
                    self._restore.append((loaded, attr, original))
                    setattr(loaded, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def covered_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start: float | None = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[SpanRecord]) -> dict[str, float]:
    """Self time per span name: duration minus the part covered by children.

    A child's interval is clipped to its parent's, so a child that
    outlives its parent is never subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {record.span_id: record for record in spans}
    for record in spans:
        parent = by_id.get(record.parent_id) if record.parent_id is not None else None
        if parent is not None:
            children.setdefault(parent.span_id, []).append(
                (max(record.start, parent.start), min(record.end, parent.end))
            )
    out: dict[str, float] = {}
    for record in spans:
        covered = covered_seconds(
            (start, end)
            for start, end in children.get(record.span_id, ())
            if end > start
        )
        out[record.name] = out.get(record.name, 0.0) + (
            record.end - record.start - covered
        )
    return out


def totals(spans: Iterable[SpanRecord]) -> dict[str, tuple[int, float]]:
    """``(calls, total seconds)`` per span name."""
    out: dict[str, tuple[int, float]] = {}
    for record in spans:
        calls, seconds = out.get(record.name, (0, 0.0))
        out[record.name] = (calls + 1, seconds + record.end - record.start)
    return out


def write_jsonl(spans: Iterable[SpanRecord], path: str, **context: object) -> None:
    """One JSON object per span; *context* keys are added to each line."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps({**context, **record._asdict()}) + "\n")


def read_jsonl(path: str) -> list[SpanRecord]:
    with open(path, encoding="utf-8") as handle:
        return [
            SpanRecord(
                row["span_id"], row["parent_id"], row["name"], row["start"], row["end"]
            )
            for row in map(json.loads, handle)
        ]
