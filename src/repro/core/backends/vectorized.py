"""Vectorized batch SIM kernel over flattened PSTs.

Scores a whole (trees × sequences) matrix in one call, in three
stages, each bit-identical to the reference implementation in
``repro.core.similarity``:

1. **Context walk** (:func:`walk_states_matrix`) — for every position
   of every (tree, sequence) pair, the paper's
   longest-significant-suffix lookup, run as at most ``max_depth``
   *depth steps* through a freeze-encoded transition table. Integer
   gathers only, so exact trivially.
2. **Ratio gather** (:func:`gather_ratios_matrix`) — per-position
   ``log X_i = log P_S(s_i|ctx) − log p(s_i)`` read from a precomputed
   ratio table. The log-probabilities are ``math.log``-exact (see
   :mod:`repro.core.backends.flatten`), and the subtraction is the same
   single IEEE op the reference performs.
3. **X/Y/Z scan** (:func:`kadane_columns`) — the log-domain Kadane DP
   with the reference's exact update and tie rules. Two interchangeable
   implementations: a per-row Python loop, taken below
   :data:`KADANE_NUMPY_MIN_ROWS` rows (one sequence against a handful of
   clusters), and a masked numpy scan over all rows at once. Both
   perform, per row, the identical sequence of float64 additions and
   comparisons as the reference loop, so the choice never affects
   results — only wall clock.

The trees' tables are stacked once (:func:`stack_flats`,
:func:`prepare_stack`) and the sequence block is padded once
(:func:`pad_sequences`);
:meth:`~repro.core.backends.dispatch.PstBatchScorer.score_matrix_full`
runs all three stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from ..similarity import _LOG_ZERO, SimilarityResult, _safe_exp
from .flatten import FlattenedPST

#: Row count from which the masked numpy X/Y/Z scan beats the per-row
#: Python loop. The scan costs a fixed ~8 numpy calls per position
#: regardless of row count; the Python loop costs ~8 scalar ops per
#: position per row. Crossover measured on the fig6 workload shapes.
KADANE_NUMPY_MIN_ROWS = 24


def log_background(
    background: npt.NDArray[np.float64],
) -> npt.NDArray[np.float64]:
    """Background log vector ``log P^r`` (§2's ratio denominator).

    ``math.log`` per entry (not ``np.log`` — one-ulp differences would
    break bit-parity with the reference), ``_LOG_ZERO`` for zero mass.
    """
    values = [
        math.log(p) if p > 0 else _LOG_ZERO for p in background.tolist()
    ]
    return np.asarray(values, dtype=np.float64)


def pad_sequences(
    sequences: Sequence[Sequence[int]],
) -> tuple[npt.NDArray[np.int32], npt.NDArray[np.int32]]:
    """Pack variable-length sequences into the −1-padded matrix the
    batched §4.3 scan consumes."""
    lengths = np.asarray([len(seq) for seq in sequences], dtype=np.int32)
    if lengths.size and int(lengths.min()) == 0:
        raise ValueError("cannot score an empty sequence")
    width = int(lengths.max()) if lengths.size else 0
    if lengths.size and int(lengths.min()) == width:
        # Equal lengths: no padding to write — one C-level conversion
        # of the whole block instead of a per-row copy loop.
        return np.asarray(sequences, dtype=np.int32).reshape(
            len(sequences), width
        ), lengths
    padded = np.full((len(sequences), width), -1, dtype=np.int32)
    for row, seq in enumerate(sequences):
        padded[row, : len(seq)] = np.asarray(seq, dtype=np.int32)
    return padded, lengths


@dataclass(frozen=True)
class StackedFlats:
    """Several flats' tables concatenated row-wise for one batch call.

    ``transitions`` child rows are rebased so each flat's rows index
    into the stacked tables; ``roots`` holds each flat's root row.
    """

    transitions: npt.NDArray[np.int32]
    log_probs: npt.NDArray[np.float64]
    roots: npt.NDArray[np.int32]
    max_depths: npt.NDArray[np.int32]
    alphabet_size: int


def stack_flats(flats: Sequence[FlattenedPST]) -> StackedFlats:
    """Concatenate flats into one table set (see :class:`StackedFlats`)
    so one batch call can score rows against different cluster PSTs —
    the shape of the paper's §4.2 re-examination matrix."""
    if not flats:
        raise ValueError("need at least one flattened tree to stack")
    alphabet_size = flats[0].alphabet_size
    for flat in flats:
        if flat.alphabet_size != alphabet_size:
            raise ValueError("all stacked trees must share one alphabet")
    if len(flats) == 1:
        flat = flats[0]
        return StackedFlats(
            transitions=flat.transitions,
            log_probs=flat.log_probs,
            roots=np.zeros(1, dtype=np.int32),
            max_depths=np.asarray([flat.max_depth], dtype=np.int32),
            alphabet_size=alphabet_size,
        )
    roots = np.zeros(len(flats), dtype=np.int32)
    rebased: list[npt.NDArray[np.int32]] = []
    offset = 0
    for index, flat in enumerate(flats):
        roots[index] = offset
        table = flat.transitions
        rebased.append(
            np.where(table >= 0, table + np.int32(offset), np.int32(-1))
        )
        offset += flat.node_count
    return StackedFlats(
        transitions=np.concatenate(rebased, axis=0),
        log_probs=np.concatenate([flat.log_probs for flat in flats], axis=0),
        roots=roots,
        max_depths=np.asarray(
            [flat.max_depth for flat in flats], dtype=np.int32
        ),
        alphabet_size=alphabet_size,
    )


@dataclass(frozen=True)
class KadaneBatchResult:
    """Per-row outcome of the batched X/Y/Z scan."""

    log_z: npt.NDArray[np.float64]
    best_start: npt.NDArray[np.int64]
    best_end: npt.NDArray[np.int64]
    whole: npt.NDArray[np.float64]


def _kadane_rows_python(
    ratios: npt.NDArray[np.float64], lengths: npt.NDArray[np.int32]
) -> KadaneBatchResult:
    batch = ratios.shape[0]
    out_z = np.empty(batch, dtype=np.float64)
    out_start = np.empty(batch, dtype=np.int64)
    out_end = np.empty(batch, dtype=np.int64)
    out_whole = np.empty(batch, dtype=np.float64)
    for row in range(batch):
        values = ratios[row, : int(lengths[row])].tolist()
        log_y = values[0]
        y_start = 0
        log_z = log_y
        best_start, best_end = 0, 1
        whole = values[0]
        for i in range(1, len(values)):
            x = values[i]
            whole += x
            if log_y + x >= x:
                log_y += x
            else:
                log_y = x
                y_start = i
            if log_y > log_z:
                log_z = log_y
                best_start, best_end = y_start, i + 1
        out_z[row] = log_z
        out_start[row] = best_start
        out_end[row] = best_end
        out_whole[row] = whole
    return KadaneBatchResult(out_z, out_start, out_end, out_whole)


def _kadane_columns_numpy(
    columns: npt.NDArray[np.float64], lengths: npt.NDArray[np.int32]
) -> KadaneBatchResult:
    width, batch = columns.shape
    if int(lengths.min()) == width:
        # Equal-lengths fast path: no padded entries exist, so the pad
        # mask is all-False — the whole-sequence view is the columns
        # themselves and no −inf fill is needed. Same float values,
        # same op order, minus three full-size array passes.
        masked_whole = columns
    else:
        pad = np.arange(width, dtype=np.int64)[:, None] >= lengths[None, :]
        # Padding becomes 0 for the whole-sequence sum and −inf for the
        # Y/Z updates: a −inf running segment extends to −inf forever
        # (ties extend) and can never strictly improve the finite best,
        # so rows past their length keep exactly the state they ended
        # with — no per-step active mask needed. Real ratios are finite
        # (the log-zero convention is a large negative constant, not
        # −inf). Fresh merges, not in-place fills: *columns* may be a
        # view of the caller's ratio cube.
        masked_whole = np.where(pad, 0.0, columns)
        columns = np.where(pad, -np.inf, columns)
    whole = masked_whole[0].copy()
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
        whole += masked_whole[i]
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
    return KadaneBatchResult(log_z, best_start, best_end, whole)


def kadane_columns(
    columns: npt.NDArray[np.float64], lengths: npt.NDArray[np.int32]
) -> KadaneBatchResult:
    """The §4.3 X/Y/Z scan over every column of *columns*.

    *columns* is ``(width, rows)`` with position leading — the layout
    the matrix kernel's gather emits natively. Per row, both
    implementations execute the identical float64 operation sequence
    as ``similarity()`` for the Y recurrence — update rule
    ``Y ← Y·X if log Y + log X ≥ log X else X`` (ties extend) — and
    recover the same Z as strict-improvement tracking (the numpy path
    via a first-occurrence argmax over the recorded Y trajectory), so
    results are bit-identical to the reference whichever implementation
    the row count selects.
    """
    if columns.shape[1] >= KADANE_NUMPY_MIN_ROWS:
        return _kadane_columns_numpy(columns, lengths)
    return _kadane_rows_python(np.ascontiguousarray(columns.T), lengths)


# -- full-matrix kernel -------------------------------------------------------
#
# The §4.2 re-examination scores *every* sequence against *every*
# cluster. The matrix kernel pads the sequence block once, walks a
# (width, trees, sequences) state cube against a freeze-encoded
# transition table, gathers from a precomputed log-ratio table, and
# hands the cube to one Kadane scan — one invocation for the whole
# matrix, bit-identical per pair to the reference.

#: Fraction of still-walking (tree, sequence, position) entries below
#: which the matrix walk switches from dense full-cube stepping to
#: index-compacted stepping over just the active entries. Contexts die
#: off geometrically with depth, so deep steps touch a tiny active set.
#: A compacted step costs several passes over the active set versus one
#: freeze-encoded gather for a dense step, so compaction only pays once
#: the survivor fraction is well under half — 0.25 measured fastest on
#: the fig6 workload (survivors ≈ 0.9 / 0.47 / 0.07 by depth).
WALK_COMPACT_FRACTION = 0.25

#: Size cap for the pair-step walk table (columns grow as the alphabet
#: squared). 32 MiB covers every realistic CLUSEQ alphabet with room
#: to spare while keeping a pathological alphabet from allocating a
#: gigabyte table nobody can cache.
WALK_PAIR_TABLE_MAX_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class PreparedStack:
    """A stacked table set preprocessed for full-matrix scoring.

    Built once per (tree set, version set) by :func:`prepare_stack` and
    cached by the scorer; both derived tables are pure per-entry
    transforms of the stacked tables, so they inherit the stack's
    validity (same identity + version key).
    """

    stacked: StackedFlats
    #: Freeze-encoded transition table of shape
    #: ``(freeze_offset + nodes, A+1)``. Rows ``0..nodes-1`` are the
    #: live nodes: entry ``[n, a]`` is the child for symbol ``a``, or —
    #: where the walk must stop (no child, or the sentinel last column
    #: that a −1 context symbol fancy-indexes) — node ``n``'s *frozen
    #: twin* ``freeze_offset + n``. Rows from ``nodes`` up are the
    #: frozen twins (plus the unreachable power-of-two gap) and map
    #: every symbol to themselves. A dense walk step is therefore ONE
    #: gather with no masks, no ``where`` and no alive bookkeeping:
    #: stopped walks self-loop on their twin, remembering the deepest
    #: live node, which :func:`walk_states_matrix` decodes at the end
    #: with one bitwise AND (the offset is a power of two).
    walk_table: npt.NDArray[np.intp]
    #: Pair-step closure of ``walk_table``: entry
    #: ``[n, a * (A+1) + b]`` is two transitions in one —
    #: ``walk_table[walk_table[n, a], b]`` — so the dense walk covers
    #: two context depths per gather. The freeze encoding composes
    #: unchanged: a walk that stops on the first symbol lands on its
    #: frozen twin, whose row self-loops through the second. ``None``
    #: when the squared-alphabet table would outgrow
    #: :data:`WALK_PAIR_TABLE_MAX_BYTES` (the walk then takes single
    #: steps only).
    walk_table2: "npt.NDArray[np.intp] | None"
    #: Power-of-two frozen-twin base: states ``>= freeze_offset`` are
    #: stopped; ``state & (freeze_offset - 1)`` recovers the node.
    freeze_offset: int
    #: ``log_probs − log_bg`` per (node, symbol) — the same single IEEE
    #: subtraction the per-position gather performs, hoisted out of the
    #: hot path so the gather is one table read.
    ratio_table: npt.NDArray[np.float64]

    @property
    def nodes(self) -> int:
        """Live node count of ``walk_table``."""
        return int(self.walk_table.shape[0]) - self.freeze_offset


def prepare_stack(
    stacked: StackedFlats, log_bg: npt.NDArray[np.float64]
) -> PreparedStack:
    """Derive the freeze-encoded walk table and ratio table for *stacked*.

    The walk table encodes the §2 maximal-context lookup; the ratio
    table pre-subtracts the §4.3 background log so the per-position
    gather is one table read.
    """
    nodes = stacked.transitions.shape[0]
    alphabet = stacked.alphabet_size
    # Smallest power of two >= nodes, so the end-of-walk decode is a
    # single bitwise AND instead of a masked subtract.
    offset = 1 << max(nodes - 1, 0).bit_length()
    # The table is intp (numpy's native fancy-index dtype): gathers
    # with intp index arrays skip the internal index-conversion pass,
    # and each step's output is then already intp for the next step.
    walk_table = np.empty((offset + nodes, alphabet + 1), dtype=np.intp)
    frozen_ids = np.arange(offset, offset + nodes, dtype=np.intp)
    live = walk_table[:nodes]
    live[:, :-1] = np.where(
        stacked.transitions >= 0, stacked.transitions, frozen_ids[:, None]
    )
    live[:, -1] = frozen_ids
    # Self-loops for the twins and the never-indexed pow2 gap rows.
    walk_table[nodes:] = np.arange(
        nodes, offset + nodes, dtype=np.intp
    )[:, None]
    # Pair-step closure: one row-gather composes every two-symbol
    # transition, frozen twins included (their self-loop rows absorb
    # the second symbol). Skipped when the (A+1)² column count would
    # blow the size cap — correctness never depends on it.
    rows = offset + nodes
    pair_cols = (alphabet + 1) * (alphabet + 1)
    walk_table2: npt.NDArray[np.intp] | None = None
    if rows * pair_cols * walk_table.itemsize <= WALK_PAIR_TABLE_MAX_BYTES:
        walk_table2 = walk_table[walk_table.reshape(-1)].reshape(
            rows, pair_cols
        )
    ratio_table: npt.NDArray[np.float64] = (
        stacked.log_probs - log_bg[None, :]
    )
    return PreparedStack(
        stacked=stacked,
        walk_table=walk_table,
        walk_table2=walk_table2,
        freeze_offset=offset,
        ratio_table=ratio_table,
    )


def walk_states_matrix(
    prep: PreparedStack, padded: npt.NDArray[np.int32]
) -> npt.NDArray[np.intp]:
    """Prediction-node cube ``(width, trees, sequences)`` for every pair.

    The §2 maximal-context walk, run over the full cube with the
    sequence block padded once. Depth caps need no explicit check: a
    node at its tree's maximum depth exports no children, so its
    transition row is all −1 and the walk stops there naturally.

    The cube is *column-major* — position is the leading axis — so the
    downstream ratio gather emits, with no transpose copy, exactly the
    position-leading layout the batched Kadane scan consumes.

    The dense phase leans on the freeze encoding of
    :attr:`PreparedStack.walk_table`: a stopped walk lands on its
    node's frozen twin (``state >= freeze_offset``) and self-loops
    there, so each depth is a single fancy gather with no alive mask
    and no ``where`` merge — and with the pair-step closure
    :attr:`PreparedStack.walk_table2` available, one gather covers two
    depths at once. Once the still-walking set has thinned past
    :data:`WALK_COMPACT_FRACTION`, the loop switches to
    index-compacted stepping over the surviving entries only; a final
    decode maps frozen twins back to the prediction node they preserve.
    """
    stacked = prep.stacked
    trees = int(stacked.roots.shape[0])
    batch, width = padded.shape
    states = np.broadcast_to(
        stacked.roots[None, :, None], (width, trees, batch)
    ).astype(np.intp)
    if width == 0 or batch == 0 or trees == 0:
        return states
    walk_table = prep.walk_table
    offset = prep.freeze_offset
    max_depth = int(stacked.max_depths.max())
    total = trees * batch * width
    # Everything indexing in the loop is intp: gathers with intp index
    # arrays skip numpy's internal index-conversion pass over the cube.
    # ``padded_w[p, s]`` is sequence *s*'s symbol at position *p*.
    padded_w = np.ascontiguousarray(padded.T, dtype=np.intp)
    roots = stacked.roots.astype(np.intp)
    active: npt.NDArray[np.intp] | None = None
    flat_states = states.reshape(-1)
    seq_at = pos_at = np.zeros(0, dtype=np.intp)
    context = np.empty((width, batch), dtype=np.intp)
    context_b = np.empty((width, batch), dtype=np.intp)
    sentinel = np.intp(stacked.alphabet_size)
    pair_base = np.intp(stacked.alphabet_size + 1)
    plane = trees * batch
    limit = min(max_depth, width)
    depth = 1
    while depth <= limit:
        if active is None:
            # Dense step. At depth 1 every state is its tree's root, so
            # index with the (1, trees, 1) root plane directly — fancy
            # indexing broadcasts it without materializing the cube.
            index = roots[None, :, None] if depth == 1 else states
            if prep.walk_table2 is not None and depth + 1 <= limit:
                # Pair step: ONE gather advances two context depths.
                # Each position's (d, d+1)-th preceding symbols fold
                # into one column index ``a·(A+1) + b``; the explicit
                # sentinel value replaces the −1 wrap, which does not
                # compose for pairs.
                context[:depth] = sentinel
                context[depth:] = padded_w[: width - depth]
                context_b[: depth + 1] = sentinel
                context_b[depth + 1:] = padded_w[: width - depth - 1]
                context *= pair_base
                context += context_b
                states = prep.walk_table2[index, context[:, None, :]]
                depth += 2
            else:
                # Single step: the d-th preceding symbol, −1 (→
                # sentinel last column) where none exists. Stopped
                # walks self-loop on their frozen twin.
                context[:depth] = -1
                context[depth:] = padded_w[: width - depth]
                states = walk_table[index, context[:, None, :]]
                depth += 1
            live = states < offset
            remaining = int(np.count_nonzero(live))
            if remaining == 0:
                break
            if remaining <= WALK_COMPACT_FRACTION * total:
                flat_states = states.reshape(-1)
                active = np.flatnonzero(live.reshape(-1))
                pos_at = active // plane
                seq_at = active % batch
        else:
            # Compacted step: gather contexts for the surviving flat
            # indices only and advance them in place. Writing the
            # frozen twin back is exactly the stop bookkeeping — the
            # final decode recovers the node.
            has_context = pos_at >= depth
            context_at = np.where(
                has_context,
                padded_w[np.maximum(pos_at - depth, 0), seq_at],
                np.intp(-1),
            )
            next_at = walk_table[flat_states[active], context_at]
            flat_states[active] = next_at
            live_at = next_at < offset
            active = active[live_at]
            depth += 1
            if active.size == 0:
                break
            pos_at = pos_at[live_at]
            seq_at = seq_at[live_at]
    # Decode frozen twins back to the prediction node they preserve:
    # the offset is a power of two, so one bitwise AND clears it.
    if max_depth > 0:
        states &= np.intp(offset - 1)
    return states


def gather_ratios_matrix(
    prep: PreparedStack,
    padded: npt.NDArray[np.int32],
    states: npt.NDArray[np.intp],
) -> npt.NDArray[np.float64]:
    """Per-position ``log X_i`` cube (§4.3) for the matrix walk's *states*.

    Same ``(width, trees, sequences)`` layout as *states*: flattening
    the trailing axes yields the position-leading matrix the batched
    Kadane scan reads column by column, with no transpose copy.
    Entries beyond a sequence's length are garbage and masked by the
    Kadane scan's length handling.
    """
    symbols_w = np.ascontiguousarray(
        np.maximum(padded, 0).T, dtype=np.intp
    )
    ratios: npt.NDArray[np.float64] = prep.ratio_table[
        states, symbols_w[:, None, :]
    ]
    return ratios


@dataclass(frozen=True)
class ScoreMatrixResult:
    """The §4.2 re-examination matrix in array form.

    Axis 0 is the tree (cluster), axis 1 the sequence column. The
    driving loops read ``log_z`` directly for the join test and
    materialize a :class:`SimilarityResult` only for pairs that join —
    the matrix is the wire format, objects are built on demand.
    """

    log_z: npt.NDArray[np.float64]
    best_start: npt.NDArray[np.int64]
    best_end: npt.NDArray[np.int64]
    whole: npt.NDArray[np.float64]

    def result(self, tree: int, column: int) -> SimilarityResult:
        """Materialize one pair's :class:`SimilarityResult`."""
        log_z = float(self.log_z[tree, column])
        return SimilarityResult(
            similarity=_safe_exp(log_z),
            log_similarity=log_z,
            best_start=int(self.best_start[tree, column]),
            best_end=int(self.best_end[tree, column]),
            whole_sequence_log=float(self.whole[tree, column]),
        )


def matrix_from_batch(
    batch: KadaneBatchResult, trees: int, columns: int
) -> ScoreMatrixResult:
    """Reshape a flat tree-major Kadane batch into §4.2 matrix form."""
    return ScoreMatrixResult(
        log_z=batch.log_z.reshape(trees, columns),
        best_start=batch.best_start.reshape(trees, columns),
        best_end=batch.best_end.reshape(trees, columns),
        whole=batch.whole.reshape(trees, columns),
    )
