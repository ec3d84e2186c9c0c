"""The caching batch scorer over flattened PSTs.

The paper's SIM measure (§4.3) has one normative implementation,
:func:`repro.core.similarity.similarity`, a direct transcription of
the paper. The flattened-array kernel of
:mod:`repro.core.backends.vectorized` reproduces it bit-for-bit (same
floats, same segment bounds), restructured to score a whole
(tree × sequence) matrix in one call. No setting chooses between the
two. The kernel steps the prediction-node automaton that the DP
steps, so it scores *closed* trees only (``count(w) ≥ count(w·a)``,
see :meth:`~repro.core.pst.ProbabilisticSuffixTree.transitions`) and
raises ``ValueError`` on any other, such as a pruned tree. The kernel
has one caller, serve classify (see README "Scoring paths"), which
keeps a tree on the kernel only while it is closed and unchanged since
the model was loaded (once an ingest writes it, re-flattening it for
every read costs more than the DP, so it is scored pair by pair from
then on); CLQ001 keeps every other package off it. The fit, the
stream, the shard consolidation and ``predict`` score with the DP or
read the trees directly.

:class:`PstBatchScorer` is the kernel's working interface: it owns the
background log vector, caches the flattened export (automaton +
log-probability table, see
:class:`~repro.core.backends.flatten.FlattenedPST`) of each tree in its
current stack together with the *prepared* stacked table set (see
:class:`~repro.core.backends.vectorized.PreparedStack`) for repeated
calls against the same tree group, and emits counters/timers through
the active metrics registry.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from ...obs import get_registry
from ..pst import ProbabilisticSuffixTree
from ..similarity import log_background
from .flatten import FlattenedPST, flatten_pst, require_closed
from .vectorized import (
    PreparedStack,
    ScoreMatrixResult,
    kadane_columns,
    pad_sequences,
    prepare_stack,
    gather_ratios_matrix,
    walk_states_matrix,
)


def _observe_segment_lengths(matrix: ScoreMatrixResult) -> None:
    """Record every pair's §4.3 segment length in one binned merge.

    A per-pair ``observe()`` loop costs more than the scoring kernel it
    instruments; binning with ``searchsorted`` (the vectorized twin of
    the histogram's ``bisect_left`` rule) keeps the telemetry contract
    at batch speed.
    """
    registry = get_registry()
    segment_lengths = registry.histogram("similarity.segment_length")
    spans = (matrix.best_end - matrix.best_start).ravel()
    if not spans.size:
        return
    bins = np.searchsorted(
        np.asarray(segment_lengths.bounds), spans, side="left"
    )
    counts = np.bincount(bins, minlength=len(segment_lengths.bounds) + 1)
    segment_lengths.merge_binned(
        counts.tolist(),
        int(spans.size),
        float(spans.sum()),
        float(spans.min()),
        float(spans.max()),
    )


class PstBatchScorer:
    """Batch scorer over flattened PSTs, result-identical to reference.

    One instance per (background, run): the scorer validates every
    cached flat against its tree's current mutation version on each
    call, so interleaving scoring with ``add_sequence`` /
    ``decay_counts`` is safe — a mutated tree is transparently
    re-flattened, never scored stale. A restack re-flattens only the
    trees whose object or version changed; the others keep their flats.
    A tree that is not closed (after pruning, say) raises ``ValueError``.
    """

    def __init__(self, background: npt.NDArray[np.float64]) -> None:
        self._background = np.asarray(background, dtype=np.float64)
        self._log_bg = np.asarray(
            log_background(self._background), dtype=np.float64
        )
        # Stack cache: the trees are held by strong reference and
        # revalidated by identity + version, never by id() alone — an
        # id can be reused by a new tree once the old one is collected.
        self._stack_psts: tuple[ProbabilisticSuffixTree, ...] = ()
        self._stack_flats: tuple[FlattenedPST, ...] = ()
        self._stack: PreparedStack | None = None

    @property
    def log_bg(self) -> npt.NDArray[np.float64]:
        """Background log vector (reference ``math.log`` convention)."""
        return self._log_bg

    def _check_trees(self, psts: Sequence[ProbabilisticSuffixTree]) -> None:
        """Reject a call the kernel cannot answer exactly, before any
        tree is flattened; touches no cache."""
        for pst in psts:
            if self._background.shape != (pst.alphabet_size,):
                raise ValueError(
                    f"background must have length {pst.alphabet_size}, "
                    f"got shape {self._background.shape}"
                )
            require_closed(pst)

    def _current_stack(
        self, psts: Sequence[ProbabilisticSuffixTree]
    ) -> PreparedStack | None:
        """The cached stack when *psts* are its trees, in order, and
        none has been written since; else ``None``.

        The trees passed :meth:`_check_trees` when they were stacked,
        and only a write (a version bump) can change what it checks, so
        a hit needs no second check.
        """
        if (
            self._stack is not None
            and len(psts) == len(self._stack_psts)
            and all(
                pst is held and pst.version == flat.version
                for pst, held, flat in zip(psts, self._stack_psts, self._stack_flats)
            )
        ):
            return self._stack
        return None

    def _stack_for(
        self, psts: Sequence[ProbabilisticSuffixTree]
    ) -> PreparedStack:
        """Restack *psts* after a miss of :meth:`_current_stack`,
        re-flattening only the trees whose object or version changed."""
        # The cached trees are alive (held in _stack_psts), so no tree in
        # *psts* can share an id with a different cached one.
        cached = {
            id(pst): flat for pst, flat in zip(self._stack_psts, self._stack_flats)
        }
        flats = []
        for pst in psts:
            flat = cached.get(id(pst))
            if flat is None or flat.version != pst.version:
                flat = flatten_pst(pst)
            flats.append(flat)
        self._stack = prepare_stack(flats, self._log_bg)
        self._stack_psts = tuple(psts)
        self._stack_flats = tuple(flats)
        registry = get_registry()
        if registry.enabled:
            registry.counter("backend.stack_rebuilds").inc()
        return self._stack

    def _score_matrix_arrays(
        self,
        prep: PreparedStack,
        symbols: npt.NDArray[np.intp],
        lengths: npt.NDArray[np.int32],
    ) -> ScoreMatrixResult:
        """One full-matrix kernel call: all of *prep*'s trees × the
        padded block (see :func:`pad_sequences`).

        The per-kernel clock reads are unconditional (one code path);
        they are only recorded when a registry is active.
        """
        started = time.perf_counter()
        states = walk_states_matrix(prep, symbols)
        walked_at = time.perf_counter()
        ratios = gather_ratios_matrix(prep, symbols, states)
        gathered_at = time.perf_counter()
        matrix = kadane_columns(ratios, lengths)
        scanned_at = time.perf_counter()
        registry = get_registry()
        if registry.enabled:
            registry.counter("backend.batch_calls").inc()
            registry.counter("backend.batch_rows").inc(matrix.log_z.size)
            registry.timer("backend.score_seconds").record(
                time.perf_counter() - started
            )
            registry.timer("backend.walk_seconds").record(walked_at - started)
            registry.timer("backend.gather_seconds").record(gathered_at - walked_at)
            registry.timer("backend.kadane_seconds").record(scanned_at - gathered_at)
            _observe_segment_lengths(matrix)
        return matrix

    def score_matrix_full(
        self,
        psts: Sequence[ProbabilisticSuffixTree],
        sequences: Sequence[Sequence[int]],
    ) -> ScoreMatrixResult:
        """Full (tree × sequence) matrix in array form, one kernel call.

        The preferred shape for the §4.2 driving loops: read ``log_z``
        for the join test, materialize result objects only for joins.

        Raises ``ValueError`` as ``similarity()`` does (wrong background
        length, an empty sequence, an id outside the alphabet), and for
        a tree that is not closed, before any tree is flattened.
        """
        if not psts or not sequences:
            shape = (len(psts), len(sequences))
            return ScoreMatrixResult(
                log_z=np.zeros(shape, dtype=np.float64),
                best_start=np.zeros(shape, dtype=np.int64),
                best_end=np.zeros(shape, dtype=np.int64),
                whole=np.zeros(shape, dtype=np.float64),
            )
        prep = self._current_stack(psts)
        if prep is None:
            self._check_trees(psts)
        started = time.perf_counter()
        symbols, lengths = pad_sequences(sequences, psts[0].alphabet_size)
        padded_s = time.perf_counter() - started
        if prep is None:
            prep = self._stack_for(psts)
        registry = get_registry()
        if registry.enabled:
            registry.timer("backend.pad_seconds").record(padded_s)
        return self._score_matrix_arrays(prep, symbols, lengths)

    def forget(self) -> None:
        """Drop the stack cache (releases cached trees and their flats)."""
        self._stack_psts = ()
        self._stack_flats = ()
        self._stack = None
