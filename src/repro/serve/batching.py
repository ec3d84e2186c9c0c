"""Micro-batching dispatcher: coalesce classify requests into one kernel.

Concurrent ``/v1/classify`` requests each carry a handful of
sequences; scoring them one request at a time would pay the batch
scorer's fixed costs (kernel launch overhead, padding) per request.
The dispatcher instead takes the first queued request, drains whatever
else is already queued (up to ``max_batch`` sequences) and scores
**all** of it at once in one
:meth:`~repro.serve.registry.ModelVersion.classify_batch` call against
the served version live when the flush starts. There is no timed
window: the flush is synchronous, so requests that arrive while it
scores queue up and leave together in the next flush. One flush is one
:meth:`~repro.core.backends.dispatch.PstBatchScorer.score_matrix_full`
call over every tree: at most one kernel invocation over the closed
trees no ingest has written, so the flat/stack caches and the
walk/Kadane kernels are amortized across clients, and the reference DP
for the rest. A flush that cannot score (no model loaded, say) fails
its requests' futures with the error.

Backpressure is the queue bound: when it is full, :meth:`submit`
raises :class:`QueueFullError` and the HTTP layer answers 503 with a
``Retry-After`` hint instead of letting latency grow without bound.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from ..obs import get_registry
from .registry import ClassifyOutcome, ModelRegistry, ModelVersion

__all__ = ["BatchStats", "MicroBatcher", "QueueFullError"]


class QueueFullError(RuntimeError):
    """The request queue is at capacity; the caller should shed load."""


@dataclass
class _Item:
    sequences: list[list[str]]
    future: "asyncio.Future[tuple[list[ClassifyOutcome | None], ModelVersion]]"


@dataclass
class BatchStats:
    """Dispatcher counters, exposed for tests and the stats endpoint."""

    flushes: int = 0
    requests: int = 0
    sequences: int = 0
    rejected: int = 0
    occupancy_sum: float = 0.0

    @property
    def mean_occupancy(self) -> float:
        """Mean requests coalesced per flush (the batching win metric)."""
        return self.occupancy_sum / self.flushes if self.flushes else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "flushes": self.flushes,
            "requests": self.requests,
            "sequences": self.sequences,
            "rejected": self.rejected,
            "mean_occupancy": self.mean_occupancy,
        }


@dataclass
class MicroBatcher:
    """Bounded-queue request coalescer over the registry's model."""

    registry: ModelRegistry
    #: A flush takes queued requests until this many sequences.
    max_batch: int = 64
    #: Queue bound in *requests*; beyond it, submit() sheds load.
    max_queue: int = 256
    stats: BatchStats = field(default_factory=BatchStats)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        # Created lazily inside the running loop: on py3.9 an
        # asyncio.Queue binds the *construction-time* loop, and the
        # batcher is typically built before asyncio.run() starts one.
        self._queue: asyncio.Queue[_Item] | None = None
        self._task: asyncio.Task[None] | None = None
        self._closed = False

    def start(self) -> None:
        """Spawn the dispatcher task on the running event loop."""
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.max_queue)
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._dispatch())

    async def close(self) -> None:
        """Stop dispatching; pending requests are failed, not dropped silently."""
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while self._queue is not None and not self._queue.empty():
            item = self._queue.get_nowait()
            if not item.future.done():
                item.future.set_exception(RuntimeError("server shutting down"))

    async def submit(
        self, sequences: list[list[str]]
    ) -> tuple[list[ClassifyOutcome | None], ModelVersion]:
        """Enqueue one request; resolves with its outcomes and the
        model version they were scored against.

        Raises :class:`QueueFullError` immediately when the queue is at
        capacity — backpressure must be visible to the client *now*,
        not after the queue has already grown a latency mountain.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        self.start()
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        future: asyncio.Future[
            tuple[list[ClassifyOutcome | None], ModelVersion]
        ] = loop.create_future()
        item = _Item(sequences=sequences, future=future)
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.stats.rejected += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter("serve.rejected").inc()
            raise QueueFullError(
                f"request queue at capacity ({self.max_queue})"
            ) from None
        registry = get_registry()
        if registry.enabled:
            registry.gauge("serve.queue_depth").set(self._queue.qsize())
        return await future

    async def _dispatch(self) -> None:
        # The only await is the queue read, where no batch is held, so a
        # cancel from close() leaves every pending request in the queue.
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            size = len(batch[0].sequences)
            while size < self.max_batch and not self._queue.empty():
                item = self._queue.get_nowait()
                batch.append(item)
                size += len(item.sequences)
            self._flush(batch)

    def _flush(self, batch: list[_Item]) -> None:
        """Score one coalesced batch against the live model version.

        Synchronous on purpose: scoring is CPU-bound (numpy kernel for
        unchanged trees, the pure-Python reference DP for the rest)
        and releases no useful concurrency to the
        loop; running it inline keeps request/score/respond on one
        thread with no cross-thread mutation hazards against
        ``/v1/stream/ingest``.
        """
        registry = get_registry()
        if registry.enabled and self._queue is not None:
            registry.gauge("serve.queue_depth").set(self._queue.qsize())
        started = time.perf_counter()
        sequences: list[list[str]] = []
        for item in batch:
            sequences.extend(item.sequences)
        try:
            version = self.registry.get()
            outcomes = version.classify_batch(sequences)
        except Exception as exc:  # a missing model (KeyError) included
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        offset = 0
        for item in batch:
            chunk = outcomes[offset : offset + len(item.sequences)]
            offset += len(item.sequences)
            if not item.future.done():
                item.future.set_result((chunk, version))
        self.stats.flushes += 1
        self.stats.requests += len(batch)
        self.stats.sequences += len(sequences)
        self.stats.occupancy_sum += len(batch)
        if registry.enabled:
            registry.counter("serve.batch.flushes").inc()
            registry.histogram("serve.batch.requests").observe(len(batch))
            registry.histogram("serve.batch.sequences").observe(len(sequences))
            registry.timer("serve.batch.score_seconds").record(
                time.perf_counter() - started
            )
