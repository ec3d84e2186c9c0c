"""Tests for repro.baselines.edit_distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.edit_distance import (
    EditDistanceClusterer,
    edit_distance,
    normalized_edit_distance,
    pairwise_distance_matrix,
)
from repro.sequences.database import SequenceDatabase


def reference_edit_distance(a, b):
    """Classic O(n·m) scalar DP, as ground truth."""
    n, m = len(a), len(b)
    dp = list(range(m + 1))
    for i in range(1, n + 1):
        prev_diag = dp[0]
        dp[0] = i
        for j in range(1, m + 1):
            temp = dp[j]
            dp[j] = min(
                dp[j] + 1,
                dp[j - 1] + 1,
                prev_diag + (a[i - 1] != b[j - 1]),
            )
            prev_diag = temp
    return dp[m]


class TestKnownValues:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("aaaabbb", "bbbaaaa", 6),  # the paper's footnote example
            ("aaaabbb", "abcdefg", 6),
        ],
    )
    def test_strings(self, a, b, expected):
        encode = {c: i for i, c in enumerate("abcdefgiklmnstw")}
        ea = [encode[c] for c in a]
        eb = [encode[c] for c in b]
        assert edit_distance(ea, eb) == expected

    def test_paper_footnote_weakness(self):
        """The paper's motivating example: ED cannot tell that aaaabbb
        is far more similar to bbbaaaa than to abcdefg."""
        encode = {c: i for i, c in enumerate("abcdefg")}
        rearranged = edit_distance(
            [encode[c] for c in "aaaabbb"], [encode[c] for c in "bbbaaaa"]
        )
        unrelated = edit_distance(
            [encode[c] for c in "aaaabbb"], [encode[c] for c in "abcdefg"]
        )
        assert rearranged == unrelated  # both 6 — the weakness itself


class TestNormalized:
    def test_range(self):
        assert normalized_edit_distance([0, 1], [1, 0]) <= 1.0
        assert normalized_edit_distance([0], [0]) == 0.0
        assert normalized_edit_distance([], []) == 0.0

    def test_divides_by_longer(self):
        assert normalized_edit_distance([0, 0, 0, 0], [1]) == pytest.approx(1.0)


class TestMatrix:
    def test_symmetric_zero_diagonal(self):
        sequences = [[0, 1, 0], [1, 1], [0, 0, 0, 0]]
        matrix = pairwise_distance_matrix(sequences)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0)

    def test_unnormalized(self):
        sequences = [[0, 1], [1, 1]]
        matrix = pairwise_distance_matrix(sequences, normalized=False)
        assert matrix[0, 1] == 1


class TestClusterer:
    def test_separates_obvious_groups(self):
        db = SequenceDatabase.from_strings(
            ["aaaaaaa", "aaaaaab", "aabaaaa", "bbbbbbb", "bbbbbba", "babbbbb"]
        )
        result = EditDistanceClusterer(seed=0).fit_predict(db, 2)
        assert result.labels[0] == result.labels[1] == result.labels[2]
        assert result.labels[3] == result.labels[4] == result.labels[5]
        assert result.labels[0] != result.labels[3]
        assert result.model_name == "ED"
        assert result.elapsed_seconds > 0

    def test_validation(self):
        db = SequenceDatabase.from_strings(["ab", "ba"])
        with pytest.raises(ValueError):
            EditDistanceClusterer().fit_predict(db, 0)
        with pytest.raises(ValueError):
            EditDistanceClusterer().fit_predict(db, 3)


sequences_strategy = st.lists(st.integers(0, 3), min_size=0, max_size=25)


@settings(max_examples=80, deadline=None)
@given(sequences_strategy, sequences_strategy)
def test_matches_reference_dp(a, b):
    """The vectorised DP must equal the scalar reference exactly."""
    assert edit_distance(a, b) == reference_edit_distance(a, b)


@settings(max_examples=50, deadline=None)
@given(sequences_strategy, sequences_strategy, sequences_strategy)
def test_metric_properties(a, b, c):
    """Edit distance is a metric: symmetry, identity, triangle."""
    assert edit_distance(a, b) == edit_distance(b, a)
    assert edit_distance(a, a) == 0
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@settings(max_examples=50, deadline=None)
@given(sequences_strategy, sequences_strategy)
def test_bounds(a, b):
    """|len(a)-len(b)| <= ED <= max(len)."""
    d = edit_distance(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b), 0)
