"""Vectorized batch SIM kernel over flattened PSTs.

Scores a whole (trees × sequences) matrix in one call, in three
stages, each bit-identical to the reference implementation in
``repro.core.similarity``:

1. **Context walk** (:func:`walk_states_matrix`) — the prediction node
   of every position of every (tree, sequence) pair. On a *closed*
   tree (see :meth:`~repro.core.pst.ProbabilisticSuffixTree.transitions`)
   the node of position ``i + 1`` is a function of the node at ``i``
   and ``s_i``: the reference DP steps that automaton through a lazily
   filled table, the kernel through the dense one each flat carries,
   rebased into one stack (:func:`prepare_stack`). One integer gather
   per position, so exact trivially.
2. **Ratio gather** (:func:`gather_ratios_matrix`) — per-position
   ``log X_i = log P_S(s_i|ctx) − log p(s_i)`` read from a precomputed
   ratio table. The log-probabilities are ``math.log``-exact (see
   :mod:`repro.core.backends.flatten`), and the subtraction is the same
   single IEEE op the reference performs.
3. **X/Y/Z scan** (:func:`kadane_columns`) — the log-domain Kadane DP
   as one masked numpy scan over all rows at once. Per row it performs
   the identical sequence of float64 additions and comparisons as the
   reference loop.

The sequence block is padded once (:func:`pad_sequences`);
:meth:`~repro.core.backends.dispatch.PstBatchScorer.score_matrix_full`
runs all three stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from ..similarity import SimilarityResult
from .flatten import FlattenedPST


def pad_sequences(
    sequences: Sequence[Sequence[int]], alphabet_size: int
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.int32]]:
    """Pack variable-length sequences position-first for the batched
    §4.3 scan.

    Returns ``(symbols, lengths)``: ``symbols[p, s]`` is sequence *s*'s
    symbol at position *p*, and 0 past its length (the scan masks those
    positions, so any valid symbol will do).

    Raises ``ValueError`` as ``similarity()`` does, for an empty
    sequence or an id outside ``[0, alphabet_size)``.
    """
    lengths = np.asarray([len(seq) for seq in sequences], dtype=np.int32)
    if lengths.size and int(lengths.min()) == 0:
        raise ValueError("cannot score an empty sequence")
    width = int(lengths.max()) if lengths.size else 0
    if lengths.size and int(lengths.min()) == width:
        # Equal lengths: no padding to write — one C-level conversion
        # of the whole block instead of a per-row copy loop.
        symbols = np.ascontiguousarray(
            np.asarray(sequences, dtype=np.intp).reshape(len(sequences), width).T
        )
    else:
        symbols = np.zeros((width, len(sequences)), dtype=np.intp)
        for row, seq in enumerate(sequences):
            symbols[: len(seq), row] = seq
    if symbols.size:
        low, high = int(symbols.min()), int(symbols.max())
        if low < 0 or high >= alphabet_size:
            raise ValueError(
                f"symbol id {low if low < 0 else high} out of range "
                f"(alphabet size {alphabet_size})"
            )
    return symbols, lengths


@dataclass(frozen=True)
class PreparedStack:
    """Several flats' tables stacked row-wise for one batch call.

    Built once per (tree set, version set) by :func:`prepare_stack` and
    cached by the scorer. Each flat's rows are rebased by the rows of
    the flats before it; ``roots`` holds each flat's root row.
    """

    roots: npt.NDArray[np.intp]
    #: ``automaton[r, a]``: the prediction node after row ``r``'s
    #: context followed by symbol ``a`` (each flat's, rebased).
    automaton: npt.NDArray[np.intp]
    #: ``log_probs − log_bg`` per (node, symbol) — the same single IEEE
    #: subtraction the per-position gather performs, hoisted out of the
    #: hot path so the gather is one table read.
    ratio_table: npt.NDArray[np.float64]


def prepare_stack(
    flats: Sequence[FlattenedPST], log_bg: npt.NDArray[np.float64]
) -> PreparedStack:
    """Stack *flats* into one automaton and ratio table for the §4.2
    (trees × sequences) matrix: each flat's rows are rebased, then
    concatenated.

    The ratio table pre-subtracts the §4.3 background log so the
    per-position gather is one table read.
    """
    if not flats:
        raise ValueError("need at least one flattened tree to stack")
    roots = np.cumsum([0] + [flat.node_count for flat in flats[:-1]], dtype=np.intp)
    automaton = np.concatenate(
        [flat.automaton + root for flat, root in zip(flats, roots.tolist())]
    )
    log_probs = np.concatenate([flat.log_probs for flat in flats])
    ratio_table: npt.NDArray[np.float64] = log_probs - log_bg[None, :]
    return PreparedStack(
        roots=roots, automaton=automaton, ratio_table=ratio_table
    )


def walk_states_matrix(
    prep: PreparedStack, symbols: npt.NDArray[np.intp]
) -> npt.NDArray[np.intp]:
    """Prediction-node cube ``(width, trees, sequences)`` for every pair.

    The §2 maximal-context lookup, as an automaton. Position 0 predicts from each tree's root; position ``p + 1`` from
    ``automaton[state_p, s_p]``, one gather over the (trees ×
    sequences) plane per position. Past a sequence's end the walk goes
    on over its padding; the scan masks those positions.

    The cube is *column-major* — position is the leading axis — so the
    downstream ratio gather emits, with no transpose copy, exactly the
    position-leading layout the batched Kadane scan consumes.
    """
    width, batch = symbols.shape
    states = np.empty((width, prep.roots.shape[0], batch), dtype=np.intp)
    if width:
        states[0] = prep.roots[:, None]
    automaton = prep.automaton
    for p in range(width - 1):
        states[p + 1] = automaton[states[p], symbols[p]]
    return states


def gather_ratios_matrix(
    prep: PreparedStack,
    symbols: npt.NDArray[np.intp],
    states: npt.NDArray[np.intp],
) -> npt.NDArray[np.float64]:
    """Per-position ``log X_i`` cube (§4.3) for the matrix walk's *states*.

    Same ``(width, trees, sequences)`` layout as *states*: flattening
    the trailing axes yields the position-leading matrix the batched
    Kadane scan reads column by column, with no transpose copy.
    Entries beyond a sequence's length are garbage and masked by the
    Kadane scan's length handling.
    """
    ratios: npt.NDArray[np.float64] = prep.ratio_table[
        states, symbols[:, None, :]
    ]
    return ratios


@dataclass(frozen=True)
class ScoreMatrixResult:
    """The §4.2 re-examination matrix in array form.

    Axis 0 is the tree (cluster), axis 1 the sequence column
    (:func:`kadane_columns` of a bare ``(width, rows)`` block gives one
    axis, the row). Callers read ``log_z`` directly for the join test
    and materialize a :class:`SimilarityResult` only for the pairs they
    report — the matrix is the wire format, objects are built on
    demand.
    """

    log_z: npt.NDArray[np.float64]
    best_start: npt.NDArray[np.int64]
    best_end: npt.NDArray[np.int64]

    def result(self, tree: int, column: int) -> SimilarityResult:
        """Materialize one pair's :class:`SimilarityResult`."""
        return SimilarityResult(
            log_similarity=float(self.log_z[tree, column]),
            best_start=int(self.best_start[tree, column]),
            best_end=int(self.best_end[tree, column]),
        )


def kadane_columns(
    columns: npt.NDArray[np.float64], lengths: npt.NDArray[np.int32]
) -> ScoreMatrixResult:
    """The §4.3 X/Y/Z scan over every column of *columns*.

    *columns* is ``(width, *shape)`` with position leading — the
    ``(width, trees, sequences)`` cube the matrix kernel's gather emits
    natively, or a ``(width, rows)`` block — and *lengths* broadcasts
    to ``shape``; every field of the result has ``shape``. Per row, the scan
    executes the identical float64 operation sequence as
    ``similarity()`` for the Y recurrence — update rule
    ``Y ← Y·X if log Y + log X ≥ log X else X`` (ties extend) — and
    recovers the same Z as strict-improvement tracking via a
    first-occurrence argmax over the recorded Y trajectory, so results
    are bit-identical to the reference.
    """
    width, shape = columns.shape[0], columns.shape[1:]
    columns = columns.reshape(width, -1)
    lengths = np.broadcast_to(lengths, shape).reshape(-1)
    batch = columns.shape[1]
    if int(lengths.min()) < width:
        # Padding becomes −inf: a −inf running segment extends to −inf
        # forever (ties extend) and can never strictly improve the
        # finite best, so rows past their length keep exactly the state
        # they ended with — no per-step active mask needed. Real ratios
        # are finite (the log-zero convention is a large negative
        # constant, not −inf). A fresh merge, not an in-place fill:
        # *columns* may be a view of the caller's ratio cube. A block
        # with no padding skips both passes.
        pad = np.arange(width, dtype=np.int64)[:, None] >= lengths[None, :]
        columns = np.where(pad, -np.inf, columns)
    # Record the Y trajectory instead of tracking Z (or the segment
    # starts) inside the loop, and recover both afterwards:
    #
    # * Z — the §4.3 strict-improvement rule keeps the FIRST step
    #   attaining the maximal Y, which is exactly ``np.argmax``'s tie
    #   rule, so one argmax over the history replaces the per-step Z
    #   bookkeeping, on identical float values.
    # * the value update — ``extended if extended >= x else x`` is
    #   value-equal to ``maximum(extended, x)`` (on a tie both arms
    #   hold the same float, and no NaNs exist here), so the scan body
    #   shrinks to one add and one maximum per step, writing straight
    #   into the history row.
    # * the segment starts — a restart at step *i* is ``extended < x``,
    #   recomputable after the scan from the stored ``H[i-1]`` and the
    #   same ``x`` (the identical IEEE add gives the identical rounded
    #   value), so one vectorized pass plus a running
    #   ``maximum.accumulate`` of restart positions rebuilds what the
    #   in-loop start tracking would have recorded.
    log_y_history = np.empty((width, batch))
    log_y_history[0] = columns[0]
    for i in range(1, width):
        x = columns[i]
        cur = log_y_history[i]
        np.add(log_y_history[i - 1], x, out=cur)
        np.maximum(cur, x, out=cur)
    best_i = np.argmax(log_y_history, axis=0)
    rows = np.arange(batch)
    log_z = log_y_history[best_i, rows]
    if width > 1:
        # Positions fit int16 for any realistic width — halves the
        # restart-table bandwidth; indices never touch the float math.
        start_dtype = (
            np.int16 if width <= np.iinfo(np.int16).max else np.int64
        )
        extended = log_y_history[:-1] + columns[1:]
        stopped = extended < columns[1:]
        restarts = np.zeros((width, batch), dtype=start_dtype)
        restarts[1:] = stopped * np.arange(
            1, width, dtype=start_dtype
        )[:, None]
        latest_restart = np.maximum.accumulate(restarts, axis=0)
        best_start = latest_restart[best_i, rows].astype(np.int64)
    else:
        best_start = np.zeros(batch, dtype=np.int64)
    best_end = best_i + 1
    return ScoreMatrixResult(
        log_z=log_z.reshape(shape),
        best_start=best_start.reshape(shape),
        best_end=best_end.reshape(shape),
    )
