"""Tests for repro.core.threshold — valley detection & t adjustment."""

import math

import numpy as np
import pytest

from repro.core.cluseq import cluster_sequences
from repro.core.threshold import (
    VALLEY_METHODS,
    ValleyResult,
    blend_log_threshold,
    build_histogram,
    find_valley,
    find_valley_otsu,
    linear_threshold,
)


def bimodal_sample(rng, low_mean=2.0, high_mean=30.0, n_low=800, n_high=200):
    """Log-sims with a dense low mode and a sparse high mode."""
    low = rng.normal(low_mean, 0.7, size=n_low)
    high = rng.normal(high_mean, 4.0, size=n_high)
    return np.concatenate([low, high]).tolist()


class TestBuildHistogram:
    def test_shapes(self, rng):
        centers, counts = build_histogram(bimodal_sample(rng), buckets=50)
        assert centers.shape == (50,)
        assert counts.shape == (50,)
        assert counts.sum() > 0

    def test_top_tail_dropped(self, rng):
        values = [1.0] * 99 + [1000.0]
        centers, counts = build_histogram(values, buckets=10, upper_quantile=0.95)
        # The 1000 outlier is beyond the clip: not folded anywhere.
        assert counts.sum() == 99
        assert centers.max() < 1000

    def test_degenerate_identical_values(self):
        centers, counts = build_histogram([3.0] * 50, buckets=10)
        assert counts.sum() == 50

    def test_nonfinite_filtered(self):
        centers, counts = build_histogram(
            [1.0, 2.0, float("inf"), float("nan"), float("-inf")],
            buckets=3,
            upper_quantile=1.0,
        )
        assert counts.sum() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            build_histogram([1.0], buckets=2)
        with pytest.raises(ValueError):
            build_histogram([1.0], upper_quantile=0.0)
        with pytest.raises(ValueError):
            build_histogram([], buckets=10)


class TestRegressionValley:
    def test_finds_spike_edge(self, rng):
        """On a declining spike + flat tail the valley sits at the spike
        edge: above the low mode's centre, below the high mode's."""
        values = bimodal_sample(rng)
        result = find_valley(values, buckets=100)
        assert result is not None
        assert min(values) <= result.log_threshold <= 30.0
        # Must cut off at least the left half of the low mode.
        below = sum(1 for v in values if v < result.log_threshold)
        assert below >= 0.2 * len(values)

    def test_insufficient_data_returns_none(self):
        assert find_valley([1.0, 2.0, 3.0]) is None

    def test_result_fields(self, rng):
        result = find_valley(bimodal_sample(rng))
        assert isinstance(result, ValleyResult)
        assert result.threshold == pytest.approx(math.exp(result.log_threshold))
        assert result.slope_difference > 0
        assert 0 < result.bucket_index < len(result.bin_centers) - 1


class TestOtsuValley:
    def test_lands_between_modes(self, rng):
        values = bimodal_sample(rng)
        result = find_valley_otsu(values, buckets=100)
        assert result is not None
        # Otsu should separate the 2-centred mode from the 30-centred one.
        assert 4.0 < result.log_threshold < 29.0

    def test_insufficient_data_returns_none(self):
        assert find_valley_otsu([5.0] * 5) is None

    def test_registry_contains_both(self):
        assert set(VALLEY_METHODS) == {"regression", "otsu"}
        assert VALLEY_METHODS["regression"] is find_valley
        assert VALLEY_METHODS["otsu"] is find_valley_otsu


class TestBlend:
    def test_paper_rule(self):
        # t ← (t + t̂)/2 on log t: the geometric mean in linear scale.
        assert blend_log_threshold(2.0, 4.0) == 3.0
        assert math.exp(blend_log_threshold(math.log(2.0), math.log(8.0))) == (
            pytest.approx(4.0)
        )
        # Clamped at the floor, and never below log t = 0 (t ≥ 1).
        assert blend_log_threshold(2.0, 4.0, floor=5.0) == 5.0
        assert blend_log_threshold(-3.0, 1.0) == 0.0
        assert blend_log_threshold(-3.0, 1.0, floor=-2.0) == 0.0


class TestStability:
    def test_valley_robust_to_sample_noise(self, rng):
        """Estimates from two samples of the same distribution agree
        to within a few buckets."""
        a = find_valley_otsu(bimodal_sample(np.random.default_rng(1)))
        b = find_valley_otsu(bimodal_sample(np.random.default_rng(2)))
        assert abs(a.log_threshold - b.log_threshold) < 8.0

    def test_unimodal_does_not_crash(self, rng):
        values = rng.normal(5.0, 1.0, size=500).tolist()
        for finder in VALLEY_METHODS.values():
            result = finder(values)
            assert result is None or math.isfinite(result.log_threshold)


class TestLinearThreshold:
    """Every reported linear ``t`` is :func:`linear_threshold` of its log."""

    @pytest.mark.parametrize("log_t", [705.0, 709.0])
    def test_every_site_converts_alike(self, toy_db, log_t):
        # Both logs are inside the float64 exponent range.
        assert linear_threshold(log_t) == math.exp(log_t)
        # ValleyResult, from both estimators: the sample shifted so
        # that its valley sits at log_t.
        sample = bimodal_sample(np.random.default_rng(3))
        for method in (find_valley, find_valley_otsu):
            base = method(sample)
            valley = method([v + log_t - base.log_threshold for v in sample])
            assert abs(valley.log_threshold - log_t) < 1e-6
            assert valley.threshold == linear_threshold(valley.log_threshold)
        # IterationStats and ClusteringResult: a fit held at log_t.
        result = cluster_sequences(
            toy_db,
            k=2,
            significance_threshold=2,
            similarity_threshold=math.exp(log_t),
            calibrate_threshold=False,
            adjust_threshold=False,
            max_iterations=1,
            seed=1,
        )
        assert result.final_log_threshold == log_t
        assert result.final_threshold == linear_threshold(log_t)
        assert [stats.threshold for stats in result.history] == [
            linear_threshold(log_t)
        ]
