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
retained. With DEBUG logging on, each finished span also logs one
record (path, wall and CPU seconds, depth): the per-event stream that
``--log-json --log-level DEBUG`` exposes.

The span stack is thread-local, so concurrent pipelines trace
independently.
"""

from __future__ import annotations

import threading
import time

from .logging import get_logger
from .metrics import MetricsRegistry, get_registry

__all__ = ["Span", "span"]

_logger = get_logger("obs.trace")

_state = threading.local()


def _stack() -> list["Span"]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


class Span:
    """One traced region; use via the :func:`span` context manager."""

    __slots__ = (
        "name",
        "path",
        "depth",
        "wall_seconds",
        "cpu_seconds",
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
        self._wall_start = 0.0
        self._cpu_start = 0.0
        self._registry = registry

    @property
    def finished(self) -> bool:
        return self.wall_seconds is not None

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

    On exit the span records ``span.<path>`` into the registry (a
    no-op when collection is disabled) and emits one DEBUG log line.
    """

    __slots__ = ("_name", "_registry", "_span")

    def __init__(self, name: str, registry: MetricsRegistry | None = None) -> None:
        if not name:
            raise ValueError("span name must be non-empty")
        self._name = name
        self._registry = registry
        self._span: Span | None = None

    def __enter__(self) -> Span:
        registry = self._registry if self._registry is not None else get_registry()
        stack = _stack()
        parent_path = stack[-1].path if stack else ""
        path = f"{parent_path}.{self._name}" if parent_path else self._name
        current = Span(self._name, path, len(stack), registry)
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
