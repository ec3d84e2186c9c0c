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
``float64`` within a few hundred symbols — and only converts back at
the end (with saturation to ``inf`` where ``exp`` would overflow).

The DP also tracks *which* segment achieved the maximum, because the
CLUSEQ algorithm inserts exactly that best-scoring segment into the
cluster's PST when a sequence joins (§4.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

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
    similarity:
        ``SIM_S(σ)`` in linear scale (``math.inf`` when the log value
        exceeds the float64 exponent range).
    log_similarity:
        ``log SIM_S(σ)`` — always finite and the value to compare or
        histogram.
    best_start, best_end:
        Half-open index range ``[best_start, best_end)`` of the segment
        of σ achieving the maximum.
    whole_sequence_log:
        ``log sim_S(σ)`` of the *entire* sequence (the non-segment
        variant of the measure), useful for diagnostics.
    """

    similarity: float
    log_similarity: float
    best_start: int
    best_end: int
    whole_sequence_log: float

    @property
    def best_segment_length(self) -> int:
        return self.best_end - self.best_start

    def exceeds(self, threshold: float) -> bool:
        """Whether ``SIM ≥ threshold`` (computed safely in log scale)."""
        if threshold <= 0:
            return True
        return self.log_similarity >= math.log(threshold)


def _safe_exp(log_value: float) -> float:
    """``exp`` with saturation instead of ``OverflowError``."""
    if log_value > 709.0:
        return math.inf
    return math.exp(log_value)


def log_symbol_ratios(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> list[float]:
    """Per-position log ratios ``log X_i = log P_S(s_i|ctx) − log p(s_i)``.

    These are the §4.3 per-symbol factors whose running sums the
    X/Y/Z scan maximises. The context walk is inlined (rather than calling
    ``pst.probability`` per position) because this is the hottest loop
    of the whole system: it runs once per (sequence, cluster) pair per
    iteration.

    ``log P̂(s | node)`` depends only on the node reached, so it is
    cached on the node (``PSTNode.log_probs``) one entry at a time, on
    first use; every writer of ``next_counts`` drops the row. Entries
    are filled singly because each join's absorb drops the rows along
    its segment, and a whole-row fill would re-pay ``n`` logs per
    touched node.
    """
    n = pst.alphabet_size
    p_min = pst.p_min
    scale = 1.0 - n * p_min
    threshold = pst.significance_threshold
    root = pst.root
    max_depth = pst.max_depth
    log_bg = [math.log(p) if p > 0 else _LOG_ZERO for p in background.tolist()]

    ratios: list[float] = []
    for i, symbol in enumerate(encoded):
        node = root
        j = i - 1
        lowest = i - max_depth
        while j >= 0 and j >= lowest:
            child = node.children.get(encoded[j])
            if child is None or child.count < threshold:
                break
            node = child
            j -= 1
        row = node.log_probs
        if row is None:
            row = node.log_probs = [None] * n
        log_p = row[symbol]
        if log_p is None:
            total = node.next_total
            if total == 0:
                prob = 1.0 / n
            else:
                prob = node.next_counts.get(symbol, 0) / total
                if p_min > 0.0:
                    prob = scale * prob + p_min
            log_p = row[symbol] = math.log(prob) if prob > 0.0 else _LOG_ZERO
        ratios.append(log_p - log_bg[symbol])
    return ratios


def similarity(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> SimilarityResult:
    """Compute ``SIM_S(σ)`` with the paper's X/Y/Z dynamic program.

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
        If *encoded* is empty or *background* has the wrong length.
    """
    if len(encoded) == 0:
        raise ValueError("cannot score an empty sequence")
    background = np.asarray(background, dtype=np.float64)
    if background.shape != (pst.alphabet_size,):
        raise ValueError(
            f"background must have length {pst.alphabet_size}, "
            f"got shape {background.shape}"
        )

    ratios = log_symbol_ratios(pst, encoded, background)

    # Log-domain Kadane-style scan with segment tracking.
    log_y = ratios[0]
    y_start = 0
    log_z = log_y
    best_start, best_end = 0, 1
    whole = ratios[0]
    for i in range(1, len(ratios)):
        x = ratios[i]
        whole += x
        if log_y + x >= x:
            log_y += x
        else:
            log_y = x
            y_start = i
        if log_y > log_z:
            log_z = log_y
            best_start, best_end = y_start, i + 1
    # One registry check per (sequence, cluster) scoring call — never
    # per symbol — so disabled-mode overhead is a single attribute read.
    registry = get_registry()
    if registry.enabled:
        registry.counter("similarity.calls").inc()
        registry.counter("similarity.dp_cells").inc(len(ratios))
        registry.histogram("similarity.segment_length").observe(
            best_end - best_start
        )
    return SimilarityResult(
        similarity=_safe_exp(log_z),
        log_similarity=log_z,
        best_start=best_start,
        best_end=best_end,
        whole_sequence_log=whole,
    )


def whole_sequence_similarity(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> float:
    """``sim_S(σ)`` over the entire sequence (§2's whole-sequence
    ratio, without the §4.3 segment maximisation)."""
    return _safe_exp(similarity(pst, encoded, background).whole_sequence_log)


def similarity_bruteforce(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> tuple[float, tuple[int, int]]:
    """Reference ``O(l²)`` maximisation over all segments, for testing.

    Shares the paper's DP semantics: the per-position ratio ``X_i``
    conditions on the *full-sequence* prefix (``P_S(s_i|s_1…s_{i-1})``),
    and every contiguous segment's score is the sum of its positions'
    log ratios. Returns the best log score and its ``[start, end)``
    range — this must agree exactly with :func:`similarity`.
    """
    if len(encoded) == 0:
        raise ValueError("cannot score an empty sequence")
    background = np.asarray(background, dtype=np.float64)
    ratios = []
    for i, symbol in enumerate(encoded):
        prob = pst.probability(symbol, encoded[:i])
        log_p = math.log(prob) if prob > 0 else _LOG_ZERO
        bg = background[symbol]
        log_bg = math.log(bg) if bg > 0 else _LOG_ZERO
        ratios.append(log_p - log_bg)
    best = -math.inf
    best_range = (0, 1)
    length = len(encoded)
    for start in range(length):
        running = 0.0
        for end in range(start + 1, length + 1):
            running += ratios[end - 1]
            if running > best:
                best = running
                best_range = (start, end)
    return best, best_range


def segment_definition_similarity(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> float:
    """Equation 1 evaluated literally: each segment scored standalone.

    Differs from the paper's DP only in the first ``max_depth`` symbols
    of each candidate segment, where the standalone segment has a
    shorter context than the full sequence provides. Exposed for
    analysis; CLUSEQ itself uses the DP, as the paper does.
    """
    if len(encoded) == 0:
        raise ValueError("cannot score an empty sequence")
    best = -math.inf
    length = len(encoded)
    for start in range(length):
        for end in range(start + 1, length + 1):
            result = similarity(pst, encoded[start:end], background)
            if result.whole_sequence_log > best:
                best = result.whole_sequence_log
    return best
