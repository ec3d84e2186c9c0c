"""Multiprocessing fan-out for the (sequence × cluster) scoring matrix.

Serving (``cluseq serve --workers N``) scores every request batch
against every cluster. With a pool the vectorized backend splits the
padded sequence block into per-worker column ranges and prescores them
on a ``ProcessPoolExecutor``; the parent stitches the columns back into
the matrix a single-process call would produce. Results are therefore
identical to single-process runs — workers only change where the
arithmetic happens.

Wire format: workers receive a tuple of
:class:`~repro.core.backends.shm.SharedFlatSpec` (segment name + array
layout per tree — a few hundred bytes), the padded ``int32`` column
slice, its lengths, and the background log vector. The model tables
themselves travel through ``multiprocessing.shared_memory`` segments
published once per (tree, version) by the pool's
:class:`~repro.core.backends.shm.ShmFlatStore`; workers attach and
rebuild zero-copy views instead of unpickling, and cache both the
attachment and the prepared stack keyed by segment names, so steady
state ships only sequence columns. Workers return the scored arrays
(``log_z`` / bounds / whole), which the parent stitches back into one
:class:`~repro.core.backends.vectorized.ScoreMatrixResult`.
"""

from __future__ import annotations

import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from ...obs import get_registry, record_foreign_span
from ..similarity import SimilarityResult, _safe_exp
from .flatten import FlattenedPST
from .shm import SharedFlatSpec, ShmFlatStore, attach_flat, specs_for
from .vectorized import (
    PreparedStack,
    ScoreMatrixResult,
    pad_sequences,
    prepare_stack,
    score_matrix_stacked,
    stack_flats,
)

#: (log_similarity, best_start, best_end, whole_sequence_log) — the raw
#: wire form of one scored pair. Retained for tests and external
#: callers that want a pickle-cheap scalar representation.
RawScore = tuple[float, int, int, float]

#: One worker chunk's reply: the four (trees × columns) score arrays
#: plus (wall seconds, CPU seconds, attach seconds) measured in-worker.
ChunkReply = tuple[
    npt.NDArray[np.float64],
    npt.NDArray[np.int64],
    npt.NDArray[np.int64],
    npt.NDArray[np.float64],
    float,
    float,
    float,
]

#: Worker-side caches: segment attachments keyed by segment name, and
#: prepared stacks keyed by (segment names, background bytes). Bounded
#: jointly — both index into the same mapped segments, so they are
#: cleared together (dropping the views is what lets a parent-unlinked
#: segment's memory actually go away).
_WORKER_FLATS: dict[str, tuple[object, FlattenedPST]] = {}
_WORKER_PREPS: dict[tuple[object, ...], PreparedStack] = {}
_WORKER_CACHE_MAX = 128


def _worker_flat(spec: SharedFlatSpec) -> FlattenedPST:
    cached = _WORKER_FLATS.get(spec.name)
    if cached is not None:
        return cached[1]
    if len(_WORKER_FLATS) >= _WORKER_CACHE_MAX:
        _worker_detach_all()
    shm, flat = attach_flat(spec)
    _WORKER_FLATS[spec.name] = (shm, flat)
    return flat


def _worker_detach_all() -> None:
    """Drop every cached attachment and derived stack, releasing maps."""
    _WORKER_PREPS.clear()
    flats = list(_WORKER_FLATS.values())
    _WORKER_FLATS.clear()
    for shm, _flat in flats:
        try:
            shm.close()  # type: ignore[attr-defined]
        except BufferError:  # pragma: no cover - a view still outstanding
            pass


def _worker_prep(
    specs: Sequence[SharedFlatSpec], log_bg: npt.NDArray[np.float64]
) -> tuple[PreparedStack, float]:
    """Prepared stack for *specs* (cached) and the attach seconds paid."""
    key: tuple[object, ...] = (
        tuple(spec.name for spec in specs),
        log_bg.tobytes(),
    )
    cached = _WORKER_PREPS.get(key)
    if cached is not None:
        return cached, 0.0
    started = time.perf_counter()
    flats = [_worker_flat(spec) for spec in specs]
    attach_seconds = time.perf_counter() - started
    prep = prepare_stack(stack_flats(flats), log_bg)
    if len(_WORKER_PREPS) >= _WORKER_CACHE_MAX:
        _WORKER_PREPS.clear()
    _WORKER_PREPS[key] = prep
    return prep, attach_seconds


def _score_chunk_shm(
    specs: tuple[SharedFlatSpec, ...],
    padded: npt.NDArray[np.int32],
    lengths: npt.NDArray[np.int32],
    log_bg: npt.NDArray[np.float64],
) -> ChunkReply:
    """Worker entry point: score one padded column slice vs all trees.

    Timings are measured inside the worker (the only place that can see
    them) and shipped home so the parent can stitch a
    ``backend.worker_chunk`` span onto the live trace and account the
    shm attach cost (``backend.shm.attach_seconds``).
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    prep, attach_seconds = _worker_prep(specs, log_bg)
    matrix = score_matrix_stacked(prep, padded, lengths)
    return (
        matrix.log_z,
        matrix.best_start,
        matrix.best_end,
        matrix.whole,
        time.perf_counter() - wall_start,
        time.process_time() - cpu_start,
        attach_seconds,
    )


def _probe_task() -> int:
    """Trivial round-trip task for :meth:`ScoringPool.probe`."""
    return 42


def score_matrix_raw(
    flats: Sequence[FlattenedPST],
    sequences: Sequence[Sequence[int]],
    log_bg: npt.NDArray[np.float64],
) -> list[list[RawScore]]:
    """Tree-major raw §4.2 score matrix, computed in-process.

    The scalar wire form predates the shared-memory path; it remains
    the reference shape for differential tests of the worker protocol.
    """
    if not flats or not sequences:
        return [[] for _ in flats]
    prep = prepare_stack(stack_flats(list(flats)), log_bg)
    padded, lengths = pad_sequences(sequences)
    matrix = score_matrix_stacked(prep, padded, lengths)
    out: list[list[RawScore]] = []
    for tree_index in range(matrix.trees):
        row_scores: list[RawScore] = []
        for column in range(matrix.columns):
            row_scores.append(
                (
                    float(matrix.log_z[tree_index, column]),
                    int(matrix.best_start[tree_index, column]),
                    int(matrix.best_end[tree_index, column]),
                    float(matrix.whole[tree_index, column]),
                )
            )
        out.append(row_scores)
    return out


def raw_to_result(raw: RawScore) -> SimilarityResult:
    """Inflate a wire-form score back into the paper's
    :class:`SimilarityResult` (§4.3)."""
    log_z, best_start, best_end, whole = raw
    return SimilarityResult(
        similarity=_safe_exp(log_z),
        log_similarity=log_z,
        best_start=best_start,
        best_end=best_end,
        whole_sequence_log=whole,
    )


class _PoolResources:
    """Executor + shm store owned by one :class:`ScoringPool`.

    Split out so the pool's ``weakref.finalize`` callback can close
    both without holding a reference to the pool itself (a bound method
    of the pool would keep it alive and the finalizer would never run).
    """

    def __init__(self) -> None:
        self.executor: ProcessPoolExecutor | None = None
        self.store = ShmFlatStore()

    def ensure_executor(self, workers: int) -> ProcessPoolExecutor:
        if self.executor is None:
            self.executor = ProcessPoolExecutor(max_workers=workers)
        return self.executor

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True, cancel_futures=True)
            self.executor = None
        self.store.close()


class ScoringPool:
    """A lazy process pool prescoring matrix column ranges.

    The executor spawns on first use. :meth:`close` is idempotent, the
    context-manager form calls it, and a ``weakref.finalize`` hook
    closes the executor *and unlinks every shared-memory segment* even
    when a caller forgets — segments in ``/dev/shm`` must never outlive
    the pool. ``workers`` ≤ 0 is rejected — callers decide between pool
    and in-process scoring before constructing one.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1 for a ScoringPool")
        self.workers = workers
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(self, self._resources.close)

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def prescore_matrix(
        self,
        flats: Sequence[FlattenedPST],
        padded: npt.NDArray[np.int32],
        lengths: npt.NDArray[np.int32],
        log_bg: npt.NDArray[np.float64],
        trace: tuple[str, str] | None = None,
    ) -> ScoreMatrixResult:
        """Raw score matrix of the padded sequence block vs *flats*.

        Columns are split into one contiguous range per worker; each
        range ships as (specs, padded slice, lengths slice) and comes
        back as score arrays that are stitched into the full matrix.
        The caller must treat the result as a snapshot and validate
        every pair against current model versions before trusting it.

        *trace* is an optional ``(trace_id, parent_span_id)`` pair (from
        :func:`repro.obs.current_trace_context`): when given, each
        worker chunk's timing is stitched onto that trace as a finished
        ``backend.worker_chunk`` span when its result is committed.
        """
        if self.closed:
            raise RuntimeError("ScoringPool is closed")
        trees = len(flats)
        columns = int(padded.shape[0])
        if trees == 0 or columns == 0:
            shape = (trees, columns)
            return ScoreMatrixResult(
                log_z=np.zeros(shape, dtype=np.float64),
                best_start=np.zeros(shape, dtype=np.int64),
                best_end=np.zeros(shape, dtype=np.int64),
                whole=np.zeros(shape, dtype=np.float64),
            )
        specs = tuple(specs_for(self._resources.store, flats))
        try:
            block = max(1, -(-columns // self.workers))
            executor = self._resources.ensure_executor(self.workers)
            futures: list[tuple[int, int, Future[ChunkReply]]] = []
            for start in range(0, columns, block):
                stop = min(start + block, columns)
                futures.append(
                    (
                        start,
                        stop,
                        executor.submit(
                            _score_chunk_shm,
                            specs,
                            padded[start:stop],
                            lengths[start:stop],
                            log_bg,
                        ),
                    )
                )
            log_z = np.empty((trees, columns), dtype=np.float64)
            best_start = np.empty((trees, columns), dtype=np.int64)
            best_end = np.empty((trees, columns), dtype=np.int64)
            whole = np.empty((trees, columns), dtype=np.float64)
            attach_total = 0.0
            for index, (start, stop, future) in enumerate(futures):
                (
                    part_z,
                    part_start,
                    part_end,
                    part_whole,
                    wall_seconds,
                    cpu_seconds,
                    attach_seconds,
                ) = future.result()
                log_z[:, start:stop] = part_z
                best_start[:, start:stop] = part_start
                best_end[:, start:stop] = part_end
                whole[:, start:stop] = part_whole
                attach_total += attach_seconds
                if trace is not None:
                    record_foreign_span(
                        "backend.worker_chunk",
                        wall_seconds,
                        cpu_seconds,
                        trace_id=trace[0],
                        parent_id=trace[1],
                        attrs={
                            "chunk": index,
                            "rows": stop - start,
                            "trees": trees,
                            "attach_seconds": attach_seconds,
                        },
                    )
            registry = get_registry()
            if registry.enabled and attach_total > 0.0:
                registry.counter("backend.shm.attaches").inc()
                registry.timer("backend.shm.attach_seconds").record(
                    attach_total
                )
            return ScoreMatrixResult(
                log_z=log_z,
                best_start=best_start,
                best_end=best_end,
                whole=whole,
            )
        finally:
            for flat in flats:
                self._resources.store.release(flat)

    def prescore_lists(
        self,
        flats: Sequence[FlattenedPST],
        sequences: Sequence[Sequence[int]],
        log_bg: npt.NDArray[np.float64],
        trace: tuple[str, str] | None = None,
    ) -> list[list[RawScore]]:
        """Tree-major :data:`RawScore` lists over the pool (test shape)."""
        if not flats or not sequences:
            return [[] for _ in flats]
        padded, lengths = pad_sequences(sequences)
        matrix = self.prescore_matrix(
            flats, padded, lengths, log_bg, trace=trace
        )
        return [
            [
                (
                    float(matrix.log_z[tree, column]),
                    int(matrix.best_start[tree, column]),
                    int(matrix.best_end[tree, column]),
                    float(matrix.whole[tree, column]),
                )
                for column in range(matrix.columns)
            ]
            for tree in range(matrix.trees)
        ]

    def reset(self) -> None:
        """Replace a broken executor (and its segments) with a fresh one.

        A ``ProcessPoolExecutor`` whose worker died (OOM kill, segfault)
        is permanently broken: every later submit raises
        ``BrokenProcessPool``. A long-running server cannot treat that
        as fatal, so ``reset()`` tears down the executor *and* the shm
        store (workers cached attachments into the dead processes;
        republishing is cheaper than reasoning about stale maps) and
        arms a fresh lazy pair. Raises ``RuntimeError`` on a closed
        pool — closed means the owner is done, not recovering.
        """
        if self.closed:
            raise RuntimeError("cannot reset a closed ScoringPool")
        self._finalizer.detach()
        self._resources.close()
        self._resources = _PoolResources()
        self._finalizer = weakref.finalize(self, self._resources.close)

    def probe(self, timeout: float = 30.0) -> bool:
        """Round-trip a trivial task through a worker; False if broken.

        Spawns the executor if it has not started yet (a truthful probe
        must exercise the real worker path). Returns ``False`` on a
        closed pool, a broken executor, or a probe that times out.
        """
        if self.closed:
            return False
        try:
            executor = self._resources.ensure_executor(self.workers)
            return executor.submit(_probe_task).result(timeout=timeout) == 42
        except Exception:
            return False

    def close(self) -> None:
        """Release the executor and unlink every segment (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "ScoringPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "ChunkReply",
    "RawScore",
    "ScoringPool",
    "raw_to_result",
    "score_matrix_raw",
]
