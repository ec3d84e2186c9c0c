"""Similarity-threshold adjustment via histogram valley detection (§4.6).

During each iteration CLUSEQ already computes the similarity of every
(sequence, cluster) combination. Their distribution typically shows a
mass of low similarities (non-members) falling away quickly, then a
long flat tail of genuine members — and the *valley* between the two
regimes is a natural similarity threshold.

The paper locates the valley as the histogram point where the curve
makes the "sharpest turn": for every bucket ``i``, fit a least-squares
regression line to the left part ``[1..i]`` and the right part
``[i..n]`` of the histogram and pick the ``i`` maximising the absolute
difference of the two slopes. Both slopes for all ``i`` are computed
from prefix/suffix sums, keeping the whole search ``O(n)``.

Similarities span many orders of magnitude, so the histogram is built
over **log similarity** (with an upper quantile clip so a single member
with astronomical similarity cannot stretch the domain); the returned
threshold is converted back to linear scale. The paper's blend
``t ← (t + t̂)/2`` is applied to ``log t`` (:func:`blend_log_threshold`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np
import numpy.typing as npt

from ..obs import get_logger, get_registry

_logger = get_logger("core.threshold")


def _record_valley_search(method: str, result: "ValleyResult" | None) -> None:
    """Telemetry for one valley search (shared by all estimators)."""
    registry = get_registry()
    if registry.enabled:
        registry.counter("threshold.valley_searches", method=method).inc()
        if result is None:
            registry.counter("threshold.valley_misses", method=method).inc()
    if _logger.isEnabledFor(10):  # logging.DEBUG
        if result is None:
            _logger.debug("valley search failed", extra={"method": method})
        else:
            _logger.debug(
                "valley found",
                extra={
                    "method": method,
                    "log_threshold": result.log_threshold,
                    "bucket_index": result.bucket_index,
                    "slope_difference": result.slope_difference,
                },
            )


def linear_threshold(log_t: float) -> float:
    """The §4.6 ``t`` from ``log t``: ``exp`` saturating to ``inf``
    above 709.

    The one ``log t → t`` conversion of every reported linear threshold
    (:class:`ValleyResult`, the fit's per-iteration stats and final
    ``t``). Decisions read ``log t``; this only reports it.
    """
    if log_t > 709.0:
        return math.inf
    return math.exp(log_t)


@dataclass(frozen=True)
class ValleyResult:
    """Outcome of a valley search on a similarity histogram."""

    threshold: float  # linear-scale t̂
    log_threshold: float
    bucket_index: int
    slope_difference: float
    bin_centers: npt.NDArray[np.float64]
    counts: npt.NDArray[np.float64]


def build_histogram(
    log_similarities: Sequence[float],
    buckets: int = 100,
    upper_quantile: float = 0.99,
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Histogram of log similarities as ``(bin_centers, counts)``
    — the §4.6 distribution whose valley locates the threshold.

    The domain runs from the minimum value to the *upper_quantile*
    quantile; values above the clip are **dropped**. They are member
    similarities many orders of magnitude past any plausible valley,
    and folding them into the last bucket would plant a phantom spike
    there that distorts the right-hand regression line.
    """
    if buckets < 3:
        raise ValueError("need at least 3 buckets")
    if not 0.0 < upper_quantile <= 1.0:
        raise ValueError("upper_quantile must be in (0, 1]")
    values = np.asarray(
        [v for v in log_similarities if math.isfinite(v)], dtype=np.float64
    )
    if values.size == 0:
        raise ValueError("no finite similarity values to histogram")
    low = float(values.min())
    high = float(np.quantile(values, upper_quantile))
    if high <= low:
        high = low + 1.0
    kept = values[values <= high]
    counts, edges = np.histogram(kept, bins=buckets, range=(low, high))
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts.astype(np.float64)


def _regression_slopes(x: npt.NDArray[np.float64], y: npt.NDArray[np.float64]) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Left and right regression slopes at every split point.

    ``left[i]`` is the slope of the least-squares line through points
    ``0..i`` (inclusive); ``right[i]`` through points ``i..n-1``. Both
    are computed from cumulative sums in ``O(n)``. Degenerate fits
    (fewer than 2 points or zero x-variance) yield ``nan``.
    """
    n = x.size
    cx = np.cumsum(x)
    cy = np.cumsum(y)
    cxy = np.cumsum(x * y)
    cxx = np.cumsum(x * x)

    counts_left = np.arange(1, n + 1, dtype=np.float64)
    num_left = cxy - cx * cy / counts_left
    den_left = cxx - cx * cx / counts_left
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(np.abs(den_left) > 1e-12, num_left / den_left, np.nan)

    sx, sy, sxy, sxx = cx[-1], cy[-1], cxy[-1], cxx[-1]
    # suffix sums over i..n-1: total minus prefix up to i-1
    px = np.concatenate(([0.0], cx[:-1]))
    py = np.concatenate(([0.0], cy[:-1]))
    pxy = np.concatenate(([0.0], cxy[:-1]))
    pxx = np.concatenate(([0.0], cxx[:-1]))
    counts_right = np.arange(n, 0, -1, dtype=np.float64)
    rx = sx - px
    ry = sy - py
    rxy = sxy - pxy
    rxx = sxx - pxx
    num_right = rxy - rx * ry / counts_right
    den_right = rxx - rx * rx / counts_right
    with np.errstate(divide="ignore", invalid="ignore"):
        right = np.where(np.abs(den_right) > 1e-12, num_right / den_right, np.nan)
    return left, right


def find_valley(
    log_similarities: Sequence[float],
    buckets: int = 100,
    upper_quantile: float = 0.99,
    min_observations: int = 20,
) -> ValleyResult | None:
    """Locate the §4.6 histogram valley and return the implied
    threshold.

    Returns ``None`` when there is not enough data for a meaningful
    fit (fewer than *min_observations* finite values, or no interior
    split point with valid regressions on both sides) — the caller then
    simply skips the threshold adjustment this iteration.
    """
    result = _find_valley_regression(
        log_similarities, buckets, upper_quantile, min_observations
    )
    _record_valley_search("regression", result)
    return result


def _find_valley_regression(
    log_similarities: Sequence[float],
    buckets: int,
    upper_quantile: float,
    min_observations: int,
) -> ValleyResult | None:
    finite = [v for v in log_similarities if math.isfinite(v)]
    if len(finite) < min_observations:
        return None
    centers, counts = build_histogram(finite, buckets, upper_quantile)
    n = centers.size
    if n < 3:
        return None
    left, right = _regression_slopes(centers, counts)

    best_index = -1
    best_diff = -math.inf
    # Interior points only (paper: i = 2 .. n-1, 1-based).
    for i in range(1, n - 1):
        if math.isnan(left[i]) or math.isnan(right[i]):
            continue
        diff = abs(left[i] - right[i])
        if diff > best_diff:
            best_diff = diff
            best_index = i
    if best_index < 0:
        return None
    log_t = float(centers[best_index])
    return ValleyResult(
        threshold=linear_threshold(log_t),
        log_threshold=log_t,
        bucket_index=best_index,
        slope_difference=best_diff,
        bin_centers=centers,
        counts=counts,
    )


def find_valley_otsu(
    log_similarities: Sequence[float],
    buckets: int = 100,
    upper_quantile: float = 0.995,
    min_observations: int = 20,
) -> ValleyResult | None:
    """Otsu's method on the log-similarity histogram.

    An alternative valley estimator to the paper's regression-slope
    heuristic. The regression heuristic locates the sharpest turn of a
    monotonically declining histogram, which on data with a hard
    similarity margin (like the paper's synthetic workloads) coincides
    with the member/non-member boundary. On data where member
    similarities sit far above the non-member mass — typical once
    cluster models mature, because the predict probability compounds
    per symbol — the sharpest turn hugs the non-member spike and badly
    underestimates the boundary. Otsu's criterion (maximise the
    between-class variance of the two sides of the split) instead lands
    in the gap between the two modes, wherever it is.

    Same return contract as :func:`find_valley`.
    """
    result = _find_valley_otsu(
        log_similarities, buckets, upper_quantile, min_observations
    )
    _record_valley_search("otsu", result)
    return result


def _find_valley_otsu(
    log_similarities: Sequence[float],
    buckets: int,
    upper_quantile: float,
    min_observations: int,
) -> ValleyResult | None:
    finite = [v for v in log_similarities if math.isfinite(v)]
    if len(finite) < min_observations:
        return None
    centers, counts = build_histogram(finite, buckets, upper_quantile)
    total = counts.sum()
    if total <= 0:
        return None
    weights = counts / total
    cum_w = np.cumsum(weights)
    cum_mean = np.cumsum(weights * centers)
    grand_mean = cum_mean[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        between = (grand_mean * cum_w - cum_mean) ** 2 / (cum_w * (1.0 - cum_w))
    between[~np.isfinite(between)] = -math.inf
    # Exclude the extreme ends so both sides keep some mass.
    between[0] = between[-1] = -math.inf
    best_index = int(np.argmax(between))
    if not math.isfinite(between[best_index]):
        return None
    log_t = float(centers[best_index])
    return ValleyResult(
        threshold=linear_threshold(log_t),
        log_threshold=log_t,
        bucket_index=best_index,
        slope_difference=float(between[best_index]),
        bin_centers=centers,
        counts=counts,
    )


#: Valley estimators by name: the fit's iteration-0 calibration takes
#: every one of them, and ``evaluation.histogram.valley_comparison``
#: reports each one's estimate.
VALLEY_METHODS: dict[str, Callable[..., ValleyResult | None]] = {
    "regression": find_valley,
    "otsu": find_valley_otsu,
}


def blend_log_threshold(
    log_t: float, valley_log_t: float, floor: float = 0.0
) -> float:
    """The paper's §4.6 update ``t ← (t + t̂) / 2``, in log scale.

    The blend averages the *log* thresholds, a geometric mean in linear
    scale. The result never drops below ``max(floor, 0)``: ``t ≥ 1`` is
    the paper's lower bound, and the fit passes its calibration floor
    as *floor*.
    """
    return max((log_t + valley_log_t) / 2.0, floor, 0.0)
