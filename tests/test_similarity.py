"""Tests for repro.core.similarity — the CLUSEQ similarity measure."""

import math

import numpy as np
import pytest

from oracles import similarity_bruteforce, whole_sequence_log
from repro.core.pruning import prune_to
from repro.core.pst import ProbabilisticSuffixTree
from repro.core.similarity import (
    log_symbol_ratios,
    similarities,
    similarity,
)
from repro.obs import MetricsRegistry, use_registry


@pytest.fixture
def uniform_bg():
    return np.array([0.5, 0.5])


@pytest.fixture
def alternating_pst():
    pst = ProbabilisticSuffixTree(
        alphabet_size=2, max_depth=3, significance_threshold=2, p_min=1e-3
    )
    pst.add_sequence([0, 1] * 15)
    return pst


class TestValidation:
    def test_empty_sequence_rejected(self, alternating_pst, uniform_bg):
        with pytest.raises(ValueError, match="empty"):
            similarity(alternating_pst, [], uniform_bg)

    def test_wrong_background_shape(self, alternating_pst):
        with pytest.raises(ValueError, match="background"):
            similarity(alternating_pst, [0, 1], np.array([0.3, 0.3, 0.4]))

    def test_bruteforce_empty_rejected(self, alternating_pst, uniform_bg):
        with pytest.raises(ValueError):
            similarity_bruteforce(alternating_pst, [], uniform_bg)

    @staticmethod
    def _three_symbol_tree():
        return ProbabilisticSuffixTree.from_sequences(
            [[0, 1, 2, 0, 1, 2]], alphabet_size=3, max_depth=2,
            significance_threshold=1,
        )

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_symbol_rejected_before_any_cache_fill(self, bad):
        """A negative id used to index the node's ``log_ratios`` row from
        the end: scoring ``[1, -1]`` filled the entry of symbol 2 with
        the estimate for symbol 2 at the wrong node, and a later
        ``[1, 2, 2]`` scored log 0.0 instead of log 3."""
        bg = np.full(3, 1 / 3)
        pst = self._three_symbol_tree()
        with pytest.raises(ValueError, match="out of range"):
            similarity(pst, [1, bad], bg)
        assert all(node.log_ratios is None for _, node in pst.iter_nodes())
        assert not pst.transitions()[0]
        expected = similarity(self._three_symbol_tree(), [1, 2, 2], bg)
        assert expected.log_similarity == pytest.approx(math.log(3))
        assert similarity(pst, [1, 2, 2], bg) == expected

    @pytest.mark.parametrize(
        "encoded, background, match",
        [
            ([0, 1, 2], np.full(5, 0.2), "background"),
            ([0, 1, 2], np.full(2, 0.5), "background"),
            ([0, -1, 2], np.full(3, 1 / 3), "out of range"),
            ([], np.full(3, 1 / 3), "empty"),
        ],
        ids=["long-background", "short-background", "negative-id", "empty"],
    )
    def test_log_symbol_ratios_shares_the_input_check(
        self, encoded, background, match
    ):
        with pytest.raises(ValueError, match=match):
            log_symbol_ratios(self._three_symbol_tree(), encoded, background)


class TestSimilarities:
    """One sequence against several trees: one input check for the row,
    made before any tree is scanned."""

    @staticmethod
    def _trees(alphabet_sizes=(3, 3, 3)):
        rng = np.random.default_rng(4)
        trees = []
        for size in alphabet_sizes:
            pst = ProbabilisticSuffixTree(
                alphabet_size=size, max_depth=3, significance_threshold=2
            )
            for _ in range(3):
                pst.add_sequence([int(s) for s in rng.integers(0, 3, size=30)])
            trees.append(pst)
        return trees

    @staticmethod
    def _caches(trees):
        return [
            (
                {node: list(row) for node, row in pst.transitions()[0].items()},
                [
                    None if node.log_ratios is None else list(node.log_ratios)
                    for _, node in pst.iter_nodes()
                ],
            )
            for pst in trees
        ]

    def test_each_result_equals_similarity(self):
        trees = self._trees()
        bg = np.array([0.2, 0.3, 0.5])
        seq = [0, 1, 2, 2, 1, 0, 0, 1]
        expected = [similarity(pst, seq, bg) for pst in self._trees()]
        assert similarities(trees, seq, bg) == expected

    @pytest.mark.parametrize(
        "encoded, alphabet_sizes, match",
        [
            ([0, 1, -1, 2], (3, 3, 3), "out of range"),
            ([0, 1, 3, 2], (3, 3, 3), "out of range"),
            ([0, 1, 2, 2], (3, 3, 4), "background"),
        ],
        ids=["negative-id", "too-large-id", "third-alphabet"],
    )
    def test_bad_input_scans_no_tree(self, encoded, alphabet_sizes, match):
        trees = self._trees(alphabet_sizes)
        bg = np.full(3, 1 / 3)
        # Warm every cache the scan fills, so "unchanged" is not vacuous.
        for pst in trees:
            similarity(pst, [0, 1, 2, 0, 2, 1], np.full(pst.alphabet_size, 1 / pst.alphabet_size))
        before = self._caches(trees)
        assert all(table for table, _ in before)
        with pytest.raises(ValueError, match=match):
            similarities(trees, encoded, bg)
        assert self._caches(trees) == before

    @pytest.mark.parametrize(
        "encoded, match", [([], "empty"), ([0, 3], "out of range")]
    )
    def test_input_is_checked_without_trees(self, encoded, match):
        with pytest.raises(ValueError, match=match):
            similarities([], encoded, np.full(3, 1 / 3))

    def test_no_trees_no_scores(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            assert similarities([], [0, 1, 2], np.full(3, 1 / 3)) == []
        assert registry.get("similarity.calls") is None

    def test_counters_are_per_pair_totals(self):
        trees = self._trees()
        bg = np.full(3, 1 / 3)
        seq = [0, 1, 2, 2, 1, 0, 0, 1, 2]
        per_pair, per_row = MetricsRegistry(), MetricsRegistry()
        with use_registry(per_pair):
            singles = [similarity(pst, seq, bg) for pst in trees]
        with use_registry(per_row):
            row = similarities(self._trees(), seq, bg)
        assert row == singles
        assert per_row.counter("similarity.calls").value == 3
        assert per_row.counter("similarity.dp_cells").value == 3 * len(seq)
        for name in ("similarity.calls", "similarity.dp_cells", "similarity.context_walks"):
            assert per_row.counter(name).value == per_pair.counter(name).value
        assert (
            per_row.histogram("similarity.segment_length").to_dict()
            == per_pair.histogram("similarity.segment_length").to_dict()
        )


class TestPaperTable1:
    """Reproduce the structure of the paper's Table 1 walkthrough:
    X, Y, Z recurrences over a 4-symbol sequence."""

    def test_recurrence_by_hand(self):
        # Build a tree whose probabilities we control exactly, then
        # verify the DP against hand-computed X/Y/Z.
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=2, significance_threshold=1
        )
        pst.add_sequence([1, 1, 0, 0, 1, 0, 1, 1, 0])
        bg = np.array([0.6, 0.4])
        seq = [1, 1, 0, 0]
        ratios = log_symbol_ratios(pst, seq, bg)
        # Manual DP.
        y = ratios[0]
        z = y
        for x in ratios[1:]:
            y = max(y + x, x)
            z = max(z, y)
        result = similarity(pst, seq, bg)
        assert result.log_similarity == pytest.approx(z)

    def test_similarity_above_one_for_model_sequence(
        self, alternating_pst, uniform_bg
    ):
        result = similarity(alternating_pst, [0, 1] * 5, uniform_bg)
        assert result.log_similarity > 0.0

    def test_whole_sequence_vs_best_segment(self, alternating_pst, uniform_bg):
        # For a partially matching sequence, the best segment beats the
        # whole-sequence score.
        seq = [0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0]
        result = similarity(alternating_pst, seq, uniform_bg)
        whole = whole_sequence_log(alternating_pst, seq, uniform_bg)
        assert result.log_similarity >= whole


class TestBestSegment:
    def test_best_segment_is_matching_region(self, alternating_pst, uniform_bg):
        # Matching island in the middle of anti-model symbols.
        seq = [0, 0, 0] + [0, 1] * 6 + [1, 1, 1]
        result = similarity(alternating_pst, seq, uniform_bg)
        start, end = result.best_start, result.best_end
        island = seq[start:end]
        # The chosen segment overlaps the alternating region substantially.
        alternations = sum(
            1 for i in range(len(island) - 1) if island[i] != island[i + 1]
        )
        assert alternations >= len(island) - 2
        assert result.best_end - result.best_start >= 6

    def test_segment_bounds_valid(self, alternating_pst, uniform_bg):
        seq = [1, 0, 0, 1, 1, 0]
        result = similarity(alternating_pst, seq, uniform_bg)
        assert 0 <= result.best_start < result.best_end <= len(seq)

    def test_single_symbol_sequence(self, alternating_pst, uniform_bg):
        result = similarity(alternating_pst, [0], uniform_bg)
        assert (result.best_start, result.best_end) == (0, 1)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce_random(self, seed, alternating_pst, uniform_bg):
        rng = np.random.default_rng(seed)
        seq = list(rng.integers(0, 2, size=25))
        result = similarity(alternating_pst, seq, uniform_bg)
        brute, brute_range = similarity_bruteforce(
            alternating_pst, seq, uniform_bg
        )
        assert result.log_similarity == pytest.approx(brute)
        brute_sum = sum(
            log_symbol_ratios(alternating_pst, seq, uniform_bg)[
                brute_range[0] : brute_range[1]
            ]
        )
        assert brute_sum == pytest.approx(brute)

    def test_nonuniform_background(self, alternating_pst):
        bg = np.array([0.9, 0.1])
        seq = [0, 1, 1, 0, 1, 0, 1]
        result = similarity(alternating_pst, seq, bg)
        brute, _ = similarity_bruteforce(alternating_pst, seq, bg)
        assert result.log_similarity == pytest.approx(brute)


class TestNumericalSafety:
    def test_long_sequence_no_overflow(self, uniform_bg):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=3, significance_threshold=2, p_min=1e-3
        )
        pst.add_sequence([0, 1] * 500)
        result = similarity(pst, [0, 1] * 500, uniform_bg)
        assert math.isfinite(result.log_similarity)
        assert result.log_similarity > math.log(1e200)  # SIM > 1e200

    def test_exp_saturates_to_inf(self, uniform_bg):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=3, significance_threshold=2, p_min=1e-3
        )
        pst.add_sequence([0, 1] * 800)
        result = similarity(pst, [0, 1] * 800, uniform_bg)
        # SIM itself is past float64 (exp(>709)); its log is not.
        assert math.isfinite(result.log_similarity)
        assert result.log_similarity > 709.0

    def test_zero_probability_without_smoothing(self, uniform_bg):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=2, significance_threshold=1, p_min=0.0
        )
        pst.add_sequence([0, 0, 0, 0, 0])
        result = similarity(pst, [0, 1], uniform_bg)
        assert math.isfinite(result.log_similarity)
        # Whole-sequence score collapses due to the unseen symbol.
        assert whole_sequence_log(pst, [0, 1], uniform_bg) < -300


class TestContextWalks:
    """``similarity.context_walks`` counts the root walks: one per
    position on a cold or not-closed tree, none on a warm closed one."""

    @staticmethod
    def _walks(pst, seq, bg):
        registry = MetricsRegistry()
        with use_registry(registry):
            similarity(pst, seq, bg)
        return registry.counter("similarity.context_walks").value

    def test_warm_closed_tree_does_not_walk(self, alternating_pst, uniform_bg):
        seq = [0, 1] * 10
        assert 0 < self._walks(alternating_pst, seq, uniform_bg) < len(seq)
        assert self._walks(alternating_pst, seq, uniform_bg) == 0

    def test_pruned_tree_walks_every_position(self, alternating_pst, uniform_bg):
        assert prune_to(alternating_pst, 3, strategy="longest_label", slack=1.0)
        seq = [0, 1] * 10
        for _ in range(2):
            assert self._walks(alternating_pst, seq, uniform_bg) == len(seq)
