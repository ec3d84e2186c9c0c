"""Lightweight tracing spans.

A *span* measures one named region of work — wall-clock and CPU time —
and nests: a span opened inside another extends the parent's dotted
path and depth. Opening the same path repeatedly (a per-iteration
phase, say) aggregates into one :class:`~repro.obs.metrics.Timer`, so
a whole run's phase breakdown is five timers, not five thousand span
records.

Usage::

    from repro.obs import span

    with span("cluseq") as run_span:
        with span("recluster"):         # path: cluseq.recluster
            ...
    run_span.wall_seconds, run_span.cpu_seconds

When a metrics registry is active each finished span records its wall
and CPU time into ``span.<path>``; when none is (the default), the
cost of a span is two clock reads and a list append — nothing is
retained.

**Exported traces (Telemetry v2).** Installing a span exporter with
:func:`set_span_exporter` (or :class:`repro.obs.export.use_span_exporter`)
upgrades spans into trace records: each span gets a process-unique
``span_id``, inherits (or starts) a ``trace_id``, remembers its
parent's id, and is handed to the exporter on exit. Root spans start a
new trace unless given an explicit ``trace_id`` — that is how the
streaming engine keeps every micro-batch of one run on a single trace.
Without an exporter none of this machinery runs.

The span stack is thread-local, so concurrent pipelines trace
independently.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Protocol

from .logging import get_logger
from .metrics import MetricsRegistry, get_registry

__all__ = [
    "Span",
    "span",
    "new_trace_id",
    "set_span_exporter",
    "get_span_exporter",
    "SpanExporter",
]

_logger = get_logger("obs.trace")

_state = threading.local()


def _stack() -> list["Span"]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


class SpanExporter(Protocol):
    """Anything that can receive finished spans (duck-typed)."""

    def export(self, span: "Span") -> None: ...


_exporter: SpanExporter | None = None

#: Process-scoped token keeping ids unique across concurrent runs that
#: merge trace files; counters keep ids deterministic within a process.
_RUN_TOKEN = f"{os.getpid():x}"
_span_ids = itertools.count(1)
_trace_ids = itertools.count(1)


def new_trace_id() -> str:
    """A fresh process-unique trace id (monotonic, not random)."""
    return f"t-{_RUN_TOKEN}-{next(_trace_ids):06d}"


def _new_span_id() -> str:
    return f"s-{_RUN_TOKEN}-{next(_span_ids):08d}"


def set_span_exporter(exporter: SpanExporter | None) -> SpanExporter | None:
    """Install *exporter* to receive finished spans; ``None`` disables.

    Returns the previously installed exporter so callers can restore it.
    """
    global _exporter
    previous = _exporter
    _exporter = exporter
    return previous


def get_span_exporter() -> SpanExporter | None:
    """The currently installed span exporter, if any."""
    return _exporter


class Span:
    """One traced region; use via the :func:`span` context manager."""

    __slots__ = (
        "name",
        "path",
        "depth",
        "wall_seconds",
        "cpu_seconds",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix",
        "attrs",
        "_wall_start",
        "_cpu_start",
        "_registry",
    )

    def __init__(
        self, name: str, path: str, depth: int, registry: MetricsRegistry
    ) -> None:
        self.name = name
        self.path = path
        self.depth = depth
        self.wall_seconds: float | None = None
        self.cpu_seconds: float | None = None
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.start_unix: float | None = None
        self.attrs: dict[str, object] | None = None
        self._wall_start = 0.0
        self._cpu_start = 0.0
        self._registry = registry

    @property
    def finished(self) -> bool:
        return self.wall_seconds is not None

    def set_attr(self, key: str, value: object) -> None:
        """Attach one key/value to the span's exported record."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def __repr__(self) -> str:
        timing = (
            f"{self.wall_seconds:.6f}s" if self.finished else "running"
        )
        return f"Span({self.path!r}, {timing})"


class span:
    """Context manager opening a :class:`Span` named *name*.

    Parameters
    ----------
    name:
        Span name; nested spans get dotted paths (``parent.child``).
    registry:
        Metrics registry to record into; defaults to the active one at
        entry time.
    trace_id:
        Explicit trace to continue when an exporter is installed.
        Only meaningful for root spans: nested spans always inherit
        their parent's trace. This is how long-lived engines keep
        successive root spans (one per micro-batch) on a single trace.

    On exit the span records ``span.<path>`` into the registry (a
    no-op when collection is disabled), hands itself to the installed
    span exporter (if any), and emits one DEBUG log line.
    """

    __slots__ = ("_name", "_registry", "_trace_id", "_span")

    def __init__(
        self,
        name: str,
        registry: MetricsRegistry | None = None,
        trace_id: str | None = None,
    ) -> None:
        if not name:
            raise ValueError("span name must be non-empty")
        self._name = name
        self._registry = registry
        self._trace_id = trace_id
        self._span: Span | None = None

    def __enter__(self) -> Span:
        registry = self._registry if self._registry is not None else get_registry()
        stack = _stack()
        parent_path = stack[-1].path if stack else ""
        path = f"{parent_path}.{self._name}" if parent_path else self._name
        current = Span(self._name, path, len(stack), registry)
        if _exporter is not None:
            current.span_id = _new_span_id()
            if stack:
                parent = stack[-1]
                current.parent_id = parent.span_id
                current.trace_id = (
                    parent.trace_id if parent.trace_id is not None else new_trace_id()
                )
            else:
                current.trace_id = (
                    self._trace_id if self._trace_id is not None else new_trace_id()
                )
            current.start_unix = time.time()
        stack.append(current)
        self._span = current
        current._cpu_start = time.process_time()
        current._wall_start = time.perf_counter()
        return current

    def __exit__(self, *exc_info: object) -> None:
        wall_end = time.perf_counter()
        cpu_end = time.process_time()
        current = self._span
        assert current is not None  # __exit__ implies __enter__ ran
        stack = _stack()
        # Pop back to (and including) our span even if inner code
        # leaked unbalanced spans via exceptions.
        while stack:
            top = stack.pop()
            if top is current:
                break
        current.wall_seconds = wall_end - current._wall_start
        current.cpu_seconds = cpu_end - current._cpu_start
        registry = current._registry
        if registry.enabled:
            registry.timer(f"span.{current.path}").record(
                current.wall_seconds, current.cpu_seconds
            )
        exporter = _exporter
        if exporter is not None and current.span_id is not None:
            exporter.export(current)
        if _logger.isEnabledFor(10):  # logging.DEBUG
            _logger.debug(
                "span %s finished",
                current.path,
                extra={
                    "span": current.path,
                    "wall_seconds": round(current.wall_seconds, 6),
                    "cpu_seconds": round(current.cpu_seconds, 6),
                    "depth": current.depth,
                },
            )
