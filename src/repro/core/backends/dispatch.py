"""The caching batch scorer over flattened PSTs.

The paper's SIM measure (§4.3) has one normative implementation,
:func:`repro.core.similarity.similarity`, a direct transcription of
the paper. The flattened-array kernel of
:mod:`repro.core.backends.vectorized` reproduces it bit-for-bit (same
floats, same segment bounds), restructured to score a whole
(tree × sequence) matrix in one call. No setting chooses between the
two. The kernel steps the prediction-node automaton that the DP
steps, so it scores *closed* trees only (``count(w) ≥ count(w·a)``,
see :meth:`~repro.core.pst.ProbabilisticSuffixTree.transitions`);
:func:`~repro.core.backends.flatten.flatten_pst` raises ``ValueError``
on any other, such as a pruned tree. The kernel has one caller, serve
classify (see README "Scoring paths"); CLQ001 keeps every other
package off it. The fit, the stream, the shard consolidation and
``predict`` score with the DP or read the trees directly.

:class:`PstBatchScorer` is the kernel's working interface and the one
owner of its state. Built with a model's trees, it scores all of them
(:meth:`PstBatchScorer.score_matrix_full`) and decides alone which
ones the kernel takes: the trees that are closed and unchanged since
it was built. Once an ingest writes a tree, re-flattening it for every
read costs more than the DP, so from then on the scorer runs the DP
on it: every sequence is checked once, then each gets one
:func:`~repro.core.similarity.score_row` over the scorer's
``log p(s)``. Both paths give ``log SIM``, ``best_start`` and
``best_end`` per pair, nothing else. It owns the background log
vector (as the kernel's array and the DP's list), flattens each kernel tree
once (see :class:`~repro.core.backends.flatten.FlattenedPST`), keeps
the *prepared* stacked table set (see
:class:`~repro.core.backends.vectorized.PreparedStack`) until the
kernel trees shrink, and emits counters/timers through the active
metrics registry.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from ...obs import get_registry
from ..pst import ProbabilisticSuffixTree
from ..similarity import check_sequence, log_background, score_row
from .flatten import FlattenedPST, flatten_pst
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
    """Batch scorer over one fixed list of PSTs, result-identical to reference.

    Built with its trees, it scores every one of them and is the one
    place that decides which the kernel takes (:meth:`_rows`): the
    trees that are closed and unwritten since the scorer was built. A
    tree an ingest writes (a
    :attr:`~repro.core.pst.ProbabilisticSuffixTree.version` bump), or
    one that is not closed, is scored with the reference DP instead;
    the kernel's trees only ever shrink. Each kernel tree is flattened
    at most once, on the first call that scores it, and the prepared
    stack is rebuilt only when the kernel trees shrink. A background of
    the wrong length raises ``ValueError`` at construction.
    """

    def __init__(
        self,
        background: npt.NDArray[np.float64],
        psts: Sequence[ProbabilisticSuffixTree],
    ) -> None:
        background = np.asarray(background, dtype=np.float64)
        for pst in psts:
            if background.shape != (pst.alphabet_size,):
                raise ValueError(
                    f"background must have length {pst.alphabet_size}, "
                    f"got shape {background.shape}"
                )
        # ``log p(s)`` as the DP reads it, and as the kernel's stack
        # reads it: the same floats.
        self._log_bg_row = log_background(background)
        self._log_bg = np.asarray(self._log_bg_row, dtype=np.float64)
        self._psts = tuple(psts)
        self._versions = tuple(pst.version for pst in psts)
        self._closed = tuple(
            p for p, pst in enumerate(psts) if pst.transitions()[1]
        )
        self._flats: dict[int, FlattenedPST] = {}
        # (rows, stack) in one attribute, so a reader never pairs one
        # call's kernel trees with another's stack.
        self._stacked: tuple[tuple[int, ...], PreparedStack | None] = ((), None)

    @property
    def log_bg(self) -> npt.NDArray[np.float64]:
        """Background log vector (reference ``math.log`` convention)."""
        return self._log_bg

    def _rows(self) -> tuple[int, ...]:
        """Positions of the trees the kernel scores, in order: closed
        when the scorer was built and unwritten since."""
        return tuple(
            p for p in self._closed if self._psts[p].version == self._versions[p]
        )

    def _stack_for(self, rows: tuple[int, ...]) -> PreparedStack:
        """The prepared stack of *rows*, restacked only when they changed
        and flattening only rows never flattened before."""
        stacked_rows, stack = self._stacked
        if stack is not None and stacked_rows == rows:
            return stack
        self._flats = {
            p: self._flats.get(p) or flatten_pst(self._psts[p]) for p in rows
        }
        stack = prepare_stack([self._flats[p] for p in rows], self._log_bg)
        self._stacked = (rows, stack)
        registry = get_registry()
        if registry.enabled:
            registry.counter("backend.stack_rebuilds").inc()
        return stack

    def _score_matrix_arrays(
        self,
        prep: PreparedStack,
        symbols: npt.NDArray[np.intp],
        lengths: npt.NDArray[np.int32],
    ) -> ScoreMatrixResult:
        """One full-matrix kernel call: all of *prep*'s trees × the
        padded block (see :func:`pad_sequences`).

        The clock is read unconditionally (one code path); the reading
        is only recorded when a registry is active.
        """
        started = time.perf_counter()
        states = walk_states_matrix(prep, symbols)
        ratios = gather_ratios_matrix(prep, symbols, states)
        matrix = kadane_columns(ratios, lengths)
        registry = get_registry()
        if registry.enabled:
            registry.counter("backend.batch_calls").inc()
            registry.counter("backend.batch_rows").inc(matrix.log_z.size)
            registry.timer("backend.score_seconds").record(
                time.perf_counter() - started
            )
            _observe_segment_lengths(matrix)
        return matrix

    def score_matrix_full(
        self, sequences: Sequence[Sequence[int]]
    ) -> ScoreMatrixResult:
        """The (tree × sequence) matrix over every tree, in tree order.

        The kernel trees (:meth:`_rows`) are scored in one kernel call;
        every other tree gets the reference DP, one
        :func:`~repro.core.similarity.score_row` call per sequence,
        without being flattened. Both are bit-identical to
        ``similarity()``. The preferred shape for the §4.2 decision:
        read ``log_z`` for the join test, materialize result objects
        only for the winner.

        Raises ``ValueError`` as ``similarity()`` does (an empty
        sequence, an id outside the alphabet) before any tree is
        scored or flattened.
        """
        rows = self._rows()
        others = [p for p in range(len(self._psts)) if p not in rows]
        if others:
            # ``score_row`` checks nothing: every sequence is checked
            # here, before the kernel call or the first DP row.
            for seq in sequences:
                check_sequence(seq, len(self._log_bg_row))
        kernel: ScoreMatrixResult | None = None
        if rows and sequences:
            symbols, lengths = pad_sequences(sequences, len(self._log_bg_row))
            prep = self._stack_for(rows)
            kernel = self._score_matrix_arrays(prep, symbols, lengths)
            if not others:
                return kernel
        shape = (len(self._psts), len(sequences))
        matrix = ScoreMatrixResult(
            log_z=np.zeros(shape, dtype=np.float64),
            best_start=np.zeros(shape, dtype=np.int64),
            best_end=np.zeros(shape, dtype=np.int64),
        )
        if kernel is not None:
            kernel_rows = list(rows)
            matrix.log_z[kernel_rows] = kernel.log_z
            matrix.best_start[kernel_rows] = kernel.best_start
            matrix.best_end[kernel_rows] = kernel.best_end
        if not others or not sequences:
            return matrix
        # One DP row per sequence, then the DP trees' rows in one write.
        other_psts = [self._psts[p] for p in others]
        logs, bounds = zip(
            *(score_row(other_psts, seq, self._log_bg_row) for seq in sequences)
        )
        matrix.log_z[others] = np.array(logs).T
        spans = np.array(bounds).reshape(len(sequences), len(others), 2)
        matrix.best_start[others] = spans[:, :, 0].T
        matrix.best_end[others] = spans[:, :, 1].T
        return matrix
