"""Reference implementations that tests compare the library against.

``similarity_bruteforce`` is the O(l²) oracle for the paper's §4.3
X/Y/Z dynamic program (``repro.core.similarity.similarity``): the
differential and property suites check that the DP's best score and
segment agree with it exactly. ``whole_sequence_log`` is ``log
sim_S(σ)`` of the whole sequence, the one segment every ``SIM`` is at
least.

Usage::

    from oracles import similarity_bruteforce, whole_sequence_log

    log_sim, (start, end) = similarity_bruteforce(pst, encoded, background)
    whole = whole_sequence_log(pst, encoded, background)
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from repro.core.pst import ProbabilisticSuffixTree
from repro.core.similarity import _LOG_ZERO, log_symbol_ratios


def similarity_bruteforce(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> tuple[float, tuple[int, int]]:
    """Reference ``O(l²)`` maximisation over all segments.

    Shares the paper's DP semantics: the per-position ratio ``X_i``
    conditions on the *full-sequence* prefix (``P_S(s_i|s_1…s_{i-1})``),
    and every contiguous segment's score is the sum of its positions'
    log ratios. Returns the best log score and its ``[start, end)``
    range — this must agree exactly with
    :func:`repro.core.similarity.similarity`.
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


def whole_sequence_log(
    pst: ProbabilisticSuffixTree,
    encoded: Sequence[int],
    background: npt.NDArray[np.float64],
) -> float:
    """``log sim_S(σ)`` of the whole sequence: the DP's per-position
    log ratios summed in position order (``sum()`` would compensate
    and round differently)."""
    total = 0.0
    for ratio in log_symbol_ratios(pst, encoded, background):
        total += ratio
    return total
