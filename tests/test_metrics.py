"""Tests for repro.evaluation.metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.metrics import (
    FamilyScore,
    accuracy_score,
    adjusted_rand_index,
    contingency_table,
    evaluate_clustering,
    family_scores,
    map_clusters_to_families,
    normalized_mutual_information,
    purity_score,
)
from repro.sequences.database import OUTLIER_LABEL

PERFECT_TRUTH = ["a", "a", "a", "b", "b", "b"]
PERFECT_PRED = [0, 0, 0, 1, 1, 1]


class TestContingency:
    def test_basic(self):
        table = contingency_table(PERFECT_TRUTH, PERFECT_PRED)
        assert table[0] == {"a": 3}
        assert table[1] == {"b": 3}

    def test_outliers_and_none_excluded(self):
        table = contingency_table(
            ["a", OUTLIER_LABEL, None, "a"], [0, 0, 0, None]
        )
        assert table == {0: {"a": 1}}


class TestMapping:
    def test_majority(self):
        truth = ["a", "a", "b", "b", "b"]
        pred = [0, 0, 0, 1, 1]
        mapping = map_clusters_to_families(truth, pred)
        assert mapping == {0: "a", 1: "b"}

    def test_majority_many_to_one(self):
        truth = ["a", "a", "a", "a"]
        pred = [0, 0, 1, 1]
        mapping = map_clusters_to_families(truth, pred)
        assert mapping == {0: "a", 1: "a"}

    def test_unknown_strategy(self):
        # Majority is the one mapping rule (Table 2): no strategy is accepted.
        with pytest.raises(TypeError):
            map_clusters_to_families(["a"], [0], "hungarian")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            map_clusters_to_families(["a"], [0, 1])

    def test_unmapped_cluster_is_none(self):
        truth = [OUTLIER_LABEL, OUTLIER_LABEL]
        pred = [0, 0]
        mapping = map_clusters_to_families(truth, pred)
        assert mapping == {0: None}


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score(PERFECT_TRUTH, PERFECT_PRED) == 1.0

    def test_half_wrong(self):
        truth = ["a", "a", "b", "b"]
        pred = [0, 1, 0, 1]  # clusters split across families
        # majority: cluster0 -> a (tie broken by count order), etc.
        value = accuracy_score(truth, pred)
        assert 0.0 < value <= 1.0

    def test_outlier_correct_when_unclustered(self):
        truth = ["a", OUTLIER_LABEL]
        pred = [0, None]
        assert accuracy_score(truth, pred) == 1.0

    def test_outlier_wrong_when_clustered(self):
        truth = ["a", "a", OUTLIER_LABEL]
        pred = [0, 0, 0]
        assert accuracy_score(truth, pred) == pytest.approx(2 / 3)

    def test_unclustered_real_sequence_is_wrong(self):
        truth = ["a", "a"]
        pred = [0, None]
        assert accuracy_score(truth, pred) == 0.5

    def test_no_labels_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([None, None], [0, 1])


class TestFamilyScores:
    def test_perfect_scores(self):
        scores = family_scores(PERFECT_TRUTH, PERFECT_PRED)
        assert all(s.precision == 1.0 and s.recall == 1.0 for s in scores)

    def test_partial_scores(self):
        truth = ["a", "a", "a", "b"]
        pred = [0, 0, None, 0]
        scores = {s.family: s for s in family_scores(truth, pred)}
        # cluster0 -> a; F' = {0,1,3}; correct = 2
        assert scores["a"].precision == pytest.approx(2 / 3)
        assert scores["a"].recall == pytest.approx(2 / 3)
        assert scores["b"].assigned == 0
        assert scores["b"].precision == 0.0

    def test_f1(self):
        score = FamilyScore(family="x", size=10, assigned=10, correct=5)
        assert score.f1 == pytest.approx(0.5)
        zero = FamilyScore(family="x", size=10, assigned=0, correct=0)
        assert zero.f1 == 0.0


class TestIndices:
    def test_purity_perfect(self):
        assert purity_score(PERFECT_TRUTH, PERFECT_PRED) == 1.0

    def test_purity_mixture(self):
        assert purity_score(["a", "b"], [0, 0]) == 0.5

    def test_ari_perfect(self):
        assert adjusted_rand_index(PERFECT_TRUTH, PERFECT_PRED) == pytest.approx(1.0)

    def test_ari_single_cluster(self):
        assert adjusted_rand_index(["a", "b"], [0, 0]) == 0.0

    def test_nmi_perfect(self):
        assert normalized_mutual_information(
            PERFECT_TRUTH, PERFECT_PRED
        ) == pytest.approx(1.0)

    def test_nmi_independent(self):
        truth = ["a", "b"] * 10
        pred = [0] * 20
        assert normalized_mutual_information(truth, pred) == 0.0


class TestEvaluateClustering:
    def test_full_report(self):
        report = evaluate_clustering(PERFECT_TRUTH, PERFECT_PRED)
        assert report.accuracy == 1.0
        assert report.purity == 1.0
        assert report.num_clusters == 2
        assert report.num_sequences == 6
        assert report.num_predicted_outliers == 0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        sizes = {s.family: s.size for s in report.family_scores}
        assert sizes == {"a": 3, "b": 3}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_clustering([], [])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=40),
)
def test_perfect_prediction_always_scores_one(truth):
    """Predicting the true partition yields accuracy/purity/ARI/NMI = 1
    (up to degenerate single-class cases for ARI)."""
    mapping = {"a": 0, "b": 1, "c": 2}
    pred = [mapping[t] for t in truth]
    assert accuracy_score(truth, pred) == 1.0
    assert purity_score(truth, pred) == 1.0
    if len(set(truth)) > 1:
        assert adjusted_rand_index(truth, pred) == pytest.approx(1.0)
        assert normalized_mutual_information(truth, pred) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b"]), min_size=2, max_size=30),
    st.lists(st.integers(0, 3), min_size=2, max_size=30),
)
def test_metric_ranges(truth, pred):
    if len(truth) != len(pred):
        pred = (pred * len(truth))[: len(truth)]
    assert 0.0 <= accuracy_score(truth, pred) <= 1.0
    assert 0.0 <= purity_score(truth, pred) <= 1.0
    assert -1.0 <= adjusted_rand_index(truth, pred) <= 1.0
    assert 0.0 <= normalized_mutual_information(truth, pred) <= 1.0 + 1e-9
