"""The CLUSEQ similarity measure (paper §2 and §4.3).

The similarity of a sequence ``σ`` to a cluster ``S`` is the likelihood
ratio between predicting ``σ`` under the cluster's conditional
probability distribution and generating it with a memoryless background
process:

    sim_S(σ) = Π_i  P_S(s_i | s_1…s_{i-1}) / p(s_i)

``SIM_S(σ)`` is the maximum of ``sim`` over every *contiguous segment*
of ``σ`` (Equation 1), computed with the paper's single-scan dynamic
program:

    X_i = P_S(s_i | …) / p(s_i)
    Y_i = max(Y_{i-1} · X_i, X_i)      # best segment ending at i
    Z_i = max(Z_{i-1}, Y_i)            # best segment ending ≤ i

Everything here runs in **log domain** — the products over/underflow
``float64`` within a few hundred symbols — and every result is
``log SIM``; nothing converts back to linear scale.

The DP also tracks *which* segment achieved the maximum, because the
CLUSEQ algorithm inserts exactly that best-scoring segment into the
cluster's PST when a sequence joins (§4.4).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np
import numpy.typing as npt

from ..obs import get_registry
from .pst import ProbabilisticSuffixTree

#: log-probability assigned when an unsmoothed estimate is exactly 0;
#: finite so the DP can still rank segments, small enough to reject any
#: segment crossing the zero.
_LOG_ZERO = -700.0


@dataclass(frozen=True)
class SimilarityResult:
    """Outcome of scoring one sequence against one cluster PST.

    Attributes
    ----------
    log_similarity:
        ``log SIM_S(σ)`` — always finite and the value to compare or
        histogram.
    best_start, best_end:
        Half-open index range ``[best_start, best_end)`` of the segment
        of σ achieving the maximum.
    """

    log_similarity: float
    best_start: int
    best_end: int


def log_background(background: npt.NDArray[np.float64]) -> list[float]:
    """``log p(s)`` per symbol id: the §4.3 ratio's denominator.

    ``math.log`` per entry, not ``np.log``, whose one-ulp differences
    would flip near-tie segment bounds; ``_LOG_ZERO`` for zero mass.
    """
    return [math.log(p) if p > 0 else _LOG_ZERO for p in background.tolist()]


def check_sequence(encoded: Sequence[int], alphabet_size: int) -> None:
    """The §4.3 scan's precondition on σ: non-empty, every id a symbol.

    Raises ``ValueError`` otherwise. A negative id would index
    ``PSTNode.log_ratios`` and the transition table from the end and
    fill another symbol's entry, so every caller runs this before the
    scan touches any cache.
    """
    if len(encoded) == 0:
        raise ValueError("cannot score an empty sequence")
    low, high = min(encoded), max(encoded)
    if low < 0 or high >= alphabet_size:
        raise ValueError(
            f"symbol id {low if low < 0 else high} out of range "
            f"(alphabet size {alphabet_size})"
        )


def _log_background(
    psts: Sequence[ProbabilisticSuffixTree],
    seqs: Sequence[Sequence[int]],
    background: npt.NDArray[np.float64],
) -> list[float]:
    """The one input check of every scoring entry point.

    Checks each of *seqs* once and the background against every tree,
    all before any tree is scanned, and also when there are no trees.
    Returns ``log p(s)`` per symbol id.
    """
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 1:
        raise ValueError(
            f"background must be one-dimensional, got shape {background.shape}"
        )
    for pst in psts:
        if background.shape != (pst.alphabet_size,):
            raise ValueError(
                f"background must have length {pst.alphabet_size}, "
                f"got shape {background.shape}"
            )
    for encoded in seqs:
        check_sequence(encoded, len(background))
    return log_background(background)


def _scan(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    log_bg: list[float],
    ratios: list[float] | None,
) -> tuple[float, int, int, int]:
    """The §4.3 scoring loop: one pass of log ratios and the X/Y/Z scan.

    The loop carries the prediction node of the current position. On a
    closed tree (see :meth:`ProbabilisticSuffixTree.transitions`) the
    prediction node of position ``i + 1`` is a function of the node at
    ``i`` and ``s_i``, so it comes from the tree's transition table;
    a missing entry is filled by the root walk along
    ``s_i, s_{i-1}, …``. On a tree that is not closed every position is
    walked and nothing is stored.

    The log ratio ``log P̂(s | node) − log p(s)`` depends only on the
    node and the background, so it is cached on the node
    (``PSTNode.log_ratios``) one entry at a time, on first use, with
    the same two IEEE operations as an uncached read; the rows are keyed
    to the tree's scoring background (see
    :meth:`ProbabilisticSuffixTree.key_ratio_rows`), and every writer
    of ``next_counts`` drops the row. Entries are filled singly because
    each join's absorb drops the rows along its segment, and a
    whole-row fill would re-pay ``n`` logs per touched node.

    Appends each position's log ratio to *ratios* when it is a list.
    Returns ``log SIM``, ``best_start``, ``best_end`` and the number of
    root walks.
    """
    n = pst.alphabet_size
    p_min = pst.p_min
    scale = 1.0 - n * p_min
    threshold = pst.significance_threshold
    max_depth = pst.max_depth
    root = pst.root
    table, closed = pst.transitions()
    pst.key_ratio_rows(log_bg)

    walks = 0
    node = root
    log_y = log_z = -math.inf
    y_start = best_start = best_end = 0
    for i, symbol in enumerate(encoded):
        row = node.log_ratios
        if row is None:
            row = node.log_ratios = [None] * n
        x = row[symbol]
        if x is None:
            total = node.next_total
            if total == 0:
                prob = 1.0 / n
            else:
                prob = node.next_counts.get(symbol, 0) / total
                if p_min > 0.0:
                    prob = scale * prob + p_min
            log_p = math.log(prob) if prob > 0.0 else _LOG_ZERO
            x = row[symbol] = log_p - log_bg[symbol]
        if ratios is not None:
            ratios.append(x)

        # Log-domain Kadane-style scan with segment tracking.
        extended = log_y + x
        if extended >= x:
            log_y = extended
        else:
            log_y = x
            y_start = i
        if log_y > log_z:
            log_z = log_y
            best_start, best_end = y_start, i + 1

        # The prediction node of position i + 1.
        try:
            successor = table[node][symbol]
        except KeyError:
            successor = None
        if successor is None:
            successor = root
            j = i
            lowest = i + 1 - max_depth
            while j >= 0 and j >= lowest:
                child = successor.children.get(encoded[j])
                if child is None or child.count < threshold:
                    break
                successor = child
                j -= 1
            walks += 1
            if closed:
                successors = table.get(node)
                if successors is None:
                    successors = table[node] = [None] * n
                successors[symbol] = successor
        node = successor

    return log_z, best_start, best_end, walks


def _count_pairs(cells: int, walks: int, bounds: Sequence[int]) -> None:
    """Record one scoring call's per-pair ``similarity.*`` totals.

    *bounds* holds each pair's ``best_start``, ``best_end``, two per
    pair. One registry check per call, never per symbol or per pair, so
    disabled-mode overhead is a single attribute read; the segment
    lengths are binned here (the histogram's ``bisect_left`` rule) and
    folded in with one ``merge_binned``.
    """
    registry = get_registry()
    pairs = len(bounds) // 2
    if registry.enabled and pairs:
        registry.counter("similarity.calls").inc(pairs)
        registry.counter("similarity.dp_cells").inc(cells)
        registry.counter("similarity.context_walks").inc(walks)
        histogram = registry.histogram("similarity.segment_length")
        edges = histogram.bounds
        binned = [0] * (len(edges) + 1)
        lengths = [bounds[at + 1] - bounds[at] for at in range(0, len(bounds), 2)]
        for length in lengths:
            binned[bisect_left(edges, length)] += 1
        histogram.merge_binned(
            binned, pairs, float(sum(lengths)), min(lengths), max(lengths)
        )


def log_symbol_ratios(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> list[float]:
    """Per-position log ratios ``log X_i = log P_S(s_i|ctx) − log p(s_i)``.

    These are the §4.3 per-symbol factors whose running sums the
    X/Y/Z scan maximises, from the same loop :func:`similarity` runs.

    Raises
    ------
    ValueError
        As :func:`similarity` does.
    """
    ratios: list[float] = []
    _scan(pst, encoded, _log_background([pst], [encoded], background), ratios)
    return ratios


def similarities(
    psts: Sequence[ProbabilisticSuffixTree],
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> list[SimilarityResult]:
    """``SIM_S(σ)`` of one sequence against each tree, in tree order.

    The §4.7 re-examination scores every sequence against every
    cluster; this is one sequence's row of that matrix. The input is
    checked once for the row, and all of it before any tree is
    scanned: σ must be non-empty with every id in range, and the
    background must match every tree's alphabet. The check runs also
    when *psts* is empty. ``log p(s)`` is built once, and the row is
    :func:`score_row`'s, one result per tree.

    Raises
    ------
    ValueError
        As :func:`similarity` does.
    """
    logs, bounds = score_row(
        psts, encoded, _log_background(psts, [encoded], background)
    )
    return [
        SimilarityResult(log_sim, bounds[2 * p], bounds[2 * p + 1])
        for p, log_sim in enumerate(logs)
    ]


def score_row(
    psts: Sequence[ProbabilisticSuffixTree],
    encoded: Sequence[int],
    log_bg: list[float],
) -> tuple[list[float], list[int]]:
    """One sequence's row of the §4.7 matrix: ``log SIM`` against each
    tree of *psts*, and ``best_start``, ``best_end`` per tree, in tree
    order.

    The row twin of :func:`pass_totals`, for the §4.2–§4.4 incremental
    joins and the row of :func:`similarities`: each tree gets the X/Y/Z
    scan. The caller checks the input once, where it first arrives
    (:func:`check_sequence` on *encoded*, *log_bg* from
    :func:`log_background` over a background of the trees' alphabet
    size); nothing is checked here.

    The registry is read once per call. It records per-pair totals:
    ``similarity.calls`` and ``similarity.dp_cells`` grow by one pair
    and ``len(σ)`` cells per tree, ``similarity.context_walks`` by the
    summed root walks, and ``similarity.segment_length`` counts one
    segment length per pair, binned and merged once per call.
    """
    logs: list[float] = []
    bounds: list[int] = []
    walks = 0
    for pst in psts:
        log_sim, start, end, pst_walks = _scan(pst, encoded, log_bg, None)
        logs.append(log_sim)
        bounds += (start, end)
        walks += pst_walks
    _count_pairs(len(encoded) * len(logs), walks, bounds)
    return logs, bounds


def pass_totals(
    pst: ProbabilisticSuffixTree,
    seqs: Sequence[Sequence[int]],
    log_bg: list[float],
    log_t: float = math.inf,
    absorb: Callable[[Sequence[int]], None] | None = None,
) -> tuple[array[float], array[int], int, int]:
    """One tree's column of the §4.7 matrix: ``log SIM`` per sequence
    of *seqs*, and ``best_start``, ``best_end`` per sequence, in order,
    then the pass's DP cells and root walks.

    Each sequence gets the X/Y/Z scan against the tree as it stands
    when its turn comes. With *absorb*, a score with ``log SIM ≥
    log_t`` hands that sequence's best segment to *absorb* before the
    next scan: one cluster's §4.2 overlap pass. The caller checks the
    input once for the column (:func:`check_sequence` per sequence,
    *log_bg* from :func:`log_background`). Nothing is recorded here:
    the caller records the totals itself with :func:`_count_pairs`,
    as :meth:`~repro.core.fit_worker.FitTrees.passes` does."""
    logs: array[float] = array("d")
    bounds: array[int] = array("i")
    cells = walks = 0
    for encoded in seqs:
        log_sim, start, end, seq_walks = _scan(pst, encoded, log_bg, None)
        logs.append(log_sim)
        bounds.append(start)
        bounds.append(end)
        cells += len(encoded)
        walks += seq_walks
        if absorb is not None and log_sim >= log_t:
            absorb(encoded[start:end])
    return logs, bounds, cells, walks


def similarity(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> SimilarityResult:
    """Compute ``SIM_S(σ)`` with the paper's X/Y/Z dynamic program.

    The one-tree case of :func:`similarities`.

    Parameters
    ----------
    pst:
        The cluster's probabilistic suffix tree (model of ``S``).
    encoded:
        The sequence σ as integer symbol ids.
    background:
        Background probabilities ``p(s)`` indexed by symbol id, from
        :meth:`repro.sequences.SequenceDatabase.background_probabilities`.

    Raises
    ------
    ValueError
        If *encoded* is empty or holds an id outside
        ``[0, alphabet_size)``, or *background* has the wrong length.
    """
    return similarities([pst], encoded, background)[0]
