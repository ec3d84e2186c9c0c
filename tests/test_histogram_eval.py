"""Tests for repro.evaluation.histogram — similarity-distribution views."""

import numpy as np

from repro.core.cluseq import cluster_sequences
from repro.evaluation.histogram import (
    histogram_series,
    similarity_distribution,
    valley_comparison,
)


def fitted(toy_db):
    return cluster_sequences(
        toy_db,
        k=2,
        significance_threshold=2,
        min_unique_members=3,
        max_iterations=10,
        seed=1,
    )


class TestSimilarityDistribution:
    def test_covers_all_pairs(self, toy_db):
        result = fitted(toy_db)
        dist = similarity_distribution(result, toy_db)
        expected = len(toy_db) * result.num_clusters
        assert dist.log_similarities.shape == (expected,)
        assert dist.member_mask.shape == (expected,)

    def test_member_mask_counts(self, toy_db):
        result = fitted(toy_db)
        dist = similarity_distribution(result, toy_db)
        total_memberships = sum(cl.size for cl in result.clusters)
        assert int(dist.member_mask.sum()) == total_memberships

    def test_members_score_higher_on_average(self, toy_db):
        result = fitted(toy_db)
        dist = similarity_distribution(result, toy_db)
        if dist.member_values.size and dist.non_member_values.size:
            assert dist.member_values.mean() > dist.non_member_values.mean()

class TestHistogramSeries:
    def test_series_shape(self, rng):
        values = rng.normal(0, 1, size=200).tolist()
        series = histogram_series(values, buckets=20)
        assert len(series) == 20
        assert sum(count for _, count in series) > 0
        centers = [x for x, _ in series]
        assert centers == sorted(centers)


class TestValleyComparison:
    def test_all_methods_reported(self, rng):
        low = rng.normal(1, 0.5, size=300)
        high = rng.normal(20, 2, size=100)
        values = np.concatenate([low, high]).tolist()
        comparison = valley_comparison(values)
        assert set(comparison) == {"regression", "otsu"}
        for value in comparison.values():
            assert value is None or np.isfinite(value)

    def test_insufficient_data(self):
        comparison = valley_comparison([1.0, 2.0])
        assert all(v is None for v in comparison.values())
