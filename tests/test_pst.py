"""Tests for repro.core.pst — the probabilistic suffix tree."""

import copy
import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from oracles import similarity_bruteforce
from repro.core.cluseq import CluseqParams
from repro.core.pruning import prune_to
from repro.core.pst import APPROX_BYTES_PER_NODE, ProbabilisticSuffixTree
from repro.core.similarity import (
    log_symbol_ratios,
    similarities,
    similarity,
)
from repro.sequences.generators import generate_clustered_database


def count_occurrences(haystack, needle):
    """Reference occurrence count of a segment in one sequence."""
    n, m = len(haystack), len(needle)
    return sum(1 for i in range(n - m + 1) if haystack[i : i + m] == needle)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alphabet_size": 0},
            {"alphabet_size": 2, "max_depth": 0},
            {"alphabet_size": 2, "significance_threshold": 0},
            {"alphabet_size": 2, "max_nodes": 0},
            {"alphabet_size": 2, "prune_strategy": "bogus"},
            {"alphabet_size": 2, "p_min": 0.9},  # 2 * 0.9 >= 1
            {"alphabet_size": 2, "p_min": -0.1},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            ProbabilisticSuffixTree(**kwargs)

    def test_unknown_prune_strategy_rejected_before_any_insert(self):
        # Checked at construction, not when the budget first triggers a
        # prune (by then the insert has already changed the tree).
        with pytest.raises(ValueError, match="prune strategy"):
            ProbabilisticSuffixTree(3, 3, 1, max_nodes=5, prune_strategy="bogus")

    def test_from_dict_rejects_unknown_prune_strategy(self):
        data = ProbabilisticSuffixTree(alphabet_size=2).to_dict()
        data["prune_strategy"] = "bogus"
        with pytest.raises(ValueError, match="prune strategy"):
            ProbabilisticSuffixTree.from_dict(data)

    @pytest.mark.parametrize(
        "fault, match",
        [
            (lambda root: root["next"].update({"-1": 1}), "symbol id '-1'"),
            (lambda root: root["next"].update({"2": 1}), "symbol id '2'"),
            (lambda root: root["next"].update({"01": 1}), "symbol id '01'"),
            (lambda root: root["children"]["0"]["next"].update({"x": 1}), "symbol id 'x'"),
            (lambda root: root["children"].update({"2": dict(root)}), "symbol id '2'"),
            (lambda root: root.update(count=-1), "count -1"),
            (lambda root: root.update(count=2.5), "count 2.5"),
            (lambda root: root["children"]["1"].update(count=True), "count True"),
            (lambda root: root["next"].update({"1": "3"}), "count '3'"),
        ],
        ids=[
            "next-negative", "next-past-alphabet", "next-not-canonical",
            "next-not-a-number", "child-past-alphabet", "count-negative",
            "count-float", "count-bool", "next-count-string",
        ],
    )
    def test_from_dict_rejects_bad_ids_and_counts(self, simple_pst, fault, match):
        data = simple_pst.to_dict()
        fault(data["root"])
        with pytest.raises(ValueError, match=match):
            ProbabilisticSuffixTree.from_dict(data)

    def test_empty_tree(self):
        pst = ProbabilisticSuffixTree(alphabet_size=3)
        assert pst.node_count == 1
        assert pst.total_symbols == 0
        # No data: uniform fallback.
        assert pst.probability(0, []) == pytest.approx(1 / 3)

    def test_from_sequences(self):
        pst = ProbabilisticSuffixTree.from_sequences(
            [[0, 1], [1, 0]], alphabet_size=2, max_depth=2
        )
        assert pst.sequences_added == 2
        assert pst.total_symbols == 4


class TestCounts:
    def test_root_count_is_total_length(self):
        pst = ProbabilisticSuffixTree(alphabet_size=2, max_depth=3)
        pst.add_sequence([0, 1, 0, 1, 0])
        assert pst.total_symbols == 5

    @pytest.mark.parametrize(
        "segment", [[0], [1], [0, 1], [1, 0], [0, 1, 0], [1, 0, 1]]
    )
    def test_segment_counts_match_reference(self, segment):
        sequence = [0, 1, 0, 1, 0, 0, 1, 1, 0, 1]
        pst = ProbabilisticSuffixTree(alphabet_size=2, max_depth=4)
        pst.add_sequence(sequence)
        assert pst.count_of(segment) == count_occurrences(sequence, segment)

    def test_counts_accumulate_across_sequences(self):
        pst = ProbabilisticSuffixTree(alphabet_size=2, max_depth=2)
        pst.add_sequence([0, 1])
        pst.add_sequence([0, 1])
        assert pst.count_of([0, 1]) == 2
        assert pst.count_of([0]) == 2

    def test_count_of_too_long_segment_is_zero(self):
        pst = ProbabilisticSuffixTree(alphabet_size=2, max_depth=2)
        pst.add_sequence([0, 1, 0, 1])
        assert pst.count_of([0, 1, 0]) == 0

    def test_count_of_absent_segment(self):
        pst = ProbabilisticSuffixTree(alphabet_size=2, max_depth=3)
        pst.add_sequence([0, 0, 0])
        assert pst.count_of([1]) == 0

    def test_empty_sequence_is_noop(self):
        pst = ProbabilisticSuffixTree(alphabet_size=2)
        pst.add_sequence([])
        assert pst.node_count == 1
        assert pst.sequences_added == 0

    def test_out_of_range_symbol_rejected(self):
        pst = ProbabilisticSuffixTree(alphabet_size=2)
        with pytest.raises(ValueError, match="out of range"):
            pst.add_sequence([0, 5])

    def test_rejected_sequence_leaves_tree_untouched(self):
        # CLQ007 regression: validation must happen before any count is
        # touched, so a caller catching the ValueError sees the tree
        # (and the version-keyed caches) exactly as before the call.
        pst = ProbabilisticSuffixTree(alphabet_size=2)
        pst.add_sequence([0, 1, 0])
        before_version = pst._version
        before_root_count = pst.root.count
        before_nodes = pst.node_count
        with pytest.raises(ValueError, match="out of range"):
            pst.add_sequence([0, 1, 7, 0])
        assert pst._version == before_version
        assert pst.root.count == before_root_count
        assert pst.node_count == before_nodes
        assert pst.root.next_counts == {0: 2, 1: 1}

    @pytest.mark.parametrize(
        "encoded, named", [([0, 9, -1], 9), ([-1, 9], -1)], ids=["9-first", "-1-first"]
    )
    def test_rejection_names_first_bad_id(self, encoded, named):
        pst = ProbabilisticSuffixTree(alphabet_size=4)
        with pytest.raises(ValueError) as raised:
            pst.add_sequence(encoded)
        assert str(raised.value) == f"symbol id {named} out of range (alphabet size 4)"

    def test_rejected_insert_leaves_counts_and_transitions(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=4, max_depth=3, significance_threshold=2
        )
        for _ in range(3):
            pst.add_sequence([0, 1, 2, 3, 2, 1, 0])
        similarity(pst, [0, 1, 2, 3, 3, 2, 1], np.full(4, 0.25))
        table = {node: list(row) for node, row in pst.transitions()[0].items()}
        assert table
        before = (pst.node_count, pst.version, pst.root.count)
        for bad in ([0, 9, -1], [-1, 9], [1, 2, 4]):
            with pytest.raises(ValueError, match="out of range"):
                pst.add_sequence(bad)
        assert (pst.node_count, pst.version, pst.root.count) == before
        assert {node: list(row) for node, row in pst.transitions()[0].items()} == table
        assert pst.transitions()[1]

    def test_empty_insert_changes_nothing(self):
        pst = ProbabilisticSuffixTree(alphabet_size=4)
        pst.add_sequence([0, 1, 2])
        before = (pst.node_count, pst.version, pst.root.count, pst.sequences_added)
        pst.add_sequence([])
        assert (
            pst.node_count, pst.version, pst.root.count, pst.sequences_added
        ) == before

    def test_forget_missing_subtree_does_not_invalidate(self):
        # CLQ007 regression: the no-op early return must not mutate and
        # must not churn the version (which would needlessly rebuild
        # the flat caches); a real detach must bump it.
        pst = ProbabilisticSuffixTree(alphabet_size=3, max_depth=2)
        pst.add_sequence([0, 1, 2, 0, 1])
        before_version = pst._version
        assert pst._forget_subtree(pst.root, 7) == 0
        assert pst._version == before_version
        removed = pst._forget_subtree(pst.root, 0)
        assert removed > 0
        assert pst._version > before_version
        assert pst.node_count == pst.root.subtree_size()


class TestSignificance:
    def test_is_significant(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=3, significance_threshold=3
        )
        pst.add_sequence([0, 1, 0, 1, 0, 1, 0])  # '01' occurs 3 times
        assert pst.is_significant([0, 1])
        assert not pst.is_significant([1, 0, 1])
        assert pst.is_significant([])  # root always significant

    def test_significant_node_count(self, simple_pst):
        total = simple_pst.node_count
        significant = simple_pst.significant_node_count()
        assert 1 <= significant <= total


class TestPrediction:
    def test_paper_example_structure(self):
        """Alternating data: P(b|a) should be ~1, P(a|b) ~1."""
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=3, significance_threshold=2
        )
        pst.add_sequence([0, 1] * 10)
        assert pst.probability(1, [0]) == pytest.approx(1.0)
        assert pst.probability(0, [1]) == pytest.approx(1.0)

    def test_longest_significant_suffix(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=4, significance_threshold=3
        )
        pst.add_sequence([0, 1] * 8)
        # (0,1,0) occurs often => significant; (1,1,0) never occurs.
        assert pst.longest_significant_suffix([1, 1, 0]) == (1, 0) or (
            pst.longest_significant_suffix([1, 1, 0]) == (0,)
        )
        lss = pst.longest_significant_suffix([0, 1, 0])
        assert lss == (0, 1, 0)

    def test_prediction_node_falls_back_to_root(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=3, significance_threshold=100
        )
        pst.add_sequence([0, 1, 0, 1])
        node = pst.prediction_node([0, 1])
        assert node is pst.root

    def test_context_longer_than_depth_truncated(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=2, significance_threshold=1
        )
        pst.add_sequence([0, 1] * 10)
        long_context = [0, 1] * 7
        short_context = long_context[-2:]
        assert pst.probability(0, long_context) == pst.probability(0, short_context)

    def test_probability_vector_sums_to_one(self, simple_pst):
        vec = simple_pst.probability_vector([0])
        assert vec.shape == (2,)
        assert np.isclose(vec.sum(), 1.0)

    def test_smoothing_lifts_zero_entries(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=2, significance_threshold=1, p_min=0.01
        )
        pst.add_sequence([0, 0, 0, 0])
        p = pst.probability(1, [0])
        assert p == pytest.approx(0.01)
        vec = pst.probability_vector([0])
        assert np.isclose(vec.sum(), 1.0)
        assert (vec >= 0.01 - 1e-12).all()


class TestTraversal:
    def test_iter_nodes_labels_unique(self, simple_pst):
        labels = [label for label, _ in simple_pst.iter_nodes()]
        assert len(labels) == len(set(labels)) == simple_pst.node_count

    def test_node_for_matches_iter(self, simple_pst):
        for label, node in simple_pst.iter_nodes():
            assert simple_pst.node_for(label) is node

    def test_depth_bounded(self, simple_pst):
        assert simple_pst.depth() <= simple_pst.max_depth

    def test_child_count_never_exceeds_parent(self, simple_pst):
        for label, node in simple_pst.iter_nodes():
            for child in node.children.values():
                assert child.count <= node.count

    def test_recount_nodes_consistent(self, simple_pst):
        assert simple_pst.recount_nodes() == simple_pst.node_count

    def test_approx_memory(self, simple_pst):
        assert simple_pst.approx_memory_bytes() > 0

    def test_approx_bytes_per_node_matches_a_measured_scored_tree(self):
        """A fit-shaped tree, scored once against its database, takes
        within 25% of ``APPROX_BYTES_PER_NODE`` per node (tracemalloc)."""
        db = generate_clustered_database(
            num_sequences=40, num_clusters=2, avg_length=120, alphabet_size=12, seed=3
        ).database
        encoded = [db.encoded(i) for i in range(len(db))]
        background = db.background_probabilities()
        factory = CluseqParams(k=2, significance_threshold=4).pst_factory(12)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tree = factory(encoded[0])
            for sequence in encoded[1:]:
                tree.add_sequence(sequence)
            for sequence in encoded:
                similarities([tree], sequence, background)
            gc.collect()
            per_node = (tracemalloc.get_traced_memory()[0] - before) / tree.node_count
        finally:
            tracemalloc.stop()
        assert tree.node_count > 5_000
        assert 0.75 * APPROX_BYTES_PER_NODE <= per_node <= 1.25 * APPROX_BYTES_PER_NODE
        assert tree.approx_memory_bytes() == tree.node_count * APPROX_BYTES_PER_NODE

    def test_repr(self, simple_pst):
        assert "ProbabilisticSuffixTree" in repr(simple_pst)


class TestNodeBudget:
    def test_budget_enforced_on_insert(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=4, max_depth=5, significance_threshold=2, max_nodes=30
        )
        rng = np.random.default_rng(0)
        for _ in range(10):
            pst.add_sequence(list(rng.integers(0, 4, size=50)))
        assert pst.node_count <= 30

    def test_unbounded_by_default(self):
        pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=5)
        rng = np.random.default_rng(0)
        for _ in range(5):
            pst.add_sequence(list(rng.integers(0, 4, size=50)))
        assert pst.node_count > 30


class TestSampling:
    def test_sample_reflects_model(self, rng):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=2, significance_threshold=2
        )
        pst.add_sequence([0, 1] * 20)
        sample = pst.sample(20, rng)
        # strict alternation learned
        assert sample == [0, 1] * 10 or sample == [1, 0] * 10 or all(
            sample[i] != sample[i + 1] for i in range(len(sample) - 1)
        )

    def test_sample_length_zero(self, rng):
        pst = ProbabilisticSuffixTree(alphabet_size=2)
        assert pst.sample(0, rng) == []

    def test_negative_length_rejected(self, rng):
        with pytest.raises(ValueError):
            ProbabilisticSuffixTree(alphabet_size=2).sample(-1, rng)


class TestSerialization:
    def test_roundtrip(self, simple_pst):
        data = simple_pst.to_dict()
        clone = ProbabilisticSuffixTree.from_dict(data)
        assert clone.node_count == simple_pst.node_count
        assert clone.total_symbols == simple_pst.total_symbols
        assert clone.max_depth == simple_pst.max_depth
        for label, node in simple_pst.iter_nodes():
            other = clone.node_for(label)
            assert other is not None
            assert other.count == node.count
            assert other.next_counts == node.next_counts

    def test_roundtrip_preserves_predictions(self, simple_pst):
        clone = ProbabilisticSuffixTree.from_dict(simple_pst.to_dict())
        for context in ([], [0], [1], [0, 1]):
            for symbol in (0, 1):
                assert clone.probability(symbol, context) == pytest.approx(
                    simple_pst.probability(symbol, context)
                )


class TestStats:
    def test_stats_matches_tree_structure(self, simple_pst):
        stats = simple_pst.stats()
        assert stats.node_count == simple_pst.node_count
        assert stats.total_symbols == simple_pst.total_symbols
        assert stats.sequences_added == 1
        assert stats.max_depth <= simple_pst.max_depth
        # depth histogram: index 0 is the root, sums to the node count
        assert stats.depth_histogram[0] == 1
        assert sum(stats.depth_histogram) == stats.node_count
        assert len(stats.depth_histogram) == stats.max_depth + 1
        assert stats.significant_nodes <= stats.node_count
        assert stats.approx_memory_bytes == simple_pst.approx_memory_bytes()
        # occurrence mass counts every node's count once
        assert stats.total_occurrence_mass == sum(
            node.count for _, node in simple_pst.iter_nodes()
        )

    def test_stats_empty_tree(self):
        stats = ProbabilisticSuffixTree(alphabet_size=2).stats()
        assert stats.node_count == 1  # the root
        assert stats.max_depth == 0
        assert stats.depth_histogram == (1,)
        assert stats.total_occurrence_mass == 0
        assert stats.sequences_added == 0

    def test_stats_to_dict_round_trips_json(self, simple_pst):
        import json

        doc = json.loads(json.dumps(simple_pst.stats().to_dict()))
        assert doc["node_count"] == simple_pst.node_count
        assert isinstance(doc["depth_histogram"], list)

    def test_repr_mentions_structure(self, simple_pst):
        text = repr(simple_pst)
        assert "ProbabilisticSuffixTree" in text
        assert f"nodes={simple_pst.node_count}" in text
        assert "sequences=1" in text
        assert f"c={simple_pst.significance_threshold}" in text


class TestLogProbCache:
    """``PSTNode.log_ratios`` rows never outlive the counts or the
    background they came from.

    Each test scores a tree to fill its rows, mutates it through one
    writer of ``next_counts`` (or scores it under another background),
    scores again, and compares with a cold ``from_dict(to_dict())`` copy
    whose rows are all empty.
    """

    BG = np.array([0.5, 0.5])

    @staticmethod
    def _cold(pst):
        return ProbabilisticSuffixTree.from_dict(pst.to_dict())

    def _assert_matches_cold(self, pst, probes):
        cold = self._cold(pst)
        for probe in probes:
            assert similarity(pst, probe, self.BG) == similarity(cold, probe, self.BG)

    def _warm(self, pst, probes):
        for probe in probes:
            similarity(pst, probe, self.BG)

    def test_add_sequence_drops_root_row(self):
        # Nothing is significant, so every position predicts from the root.
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=1, significance_threshold=1000
        )
        pst.add_sequence([0, 0, 0, 1])
        probes = [[0, 1, 0, 1]]
        self._warm(pst, probes)
        assert pst.root.log_ratios is not None
        pst.add_sequence([1, 1, 1, 1])
        self._assert_matches_cold(pst, probes)

    def test_add_sequence_drops_child_rows(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=1, significance_threshold=1
        )
        pst.add_sequence([0, 1, 0, 1, 0, 1])
        probes = [[0, 1, 0, 1]]
        self._warm(pst, probes)
        assert pst.node_for([0]).log_ratios is not None
        # Only the depth-1 rows change their distribution: the root's
        # next-symbol mix stays 50/50.
        pst.add_sequence([0, 0, 1, 1])
        self._assert_matches_cold(pst, probes)

    def test_merge_counts_drops_rows(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=2, significance_threshold=1, p_min=0.01
        )
        pst.add_sequence([0, 1, 0, 1, 0, 1])
        probes = [[0, 1, 0, 1], [1, 0, 0, 1]]
        self._warm(pst, probes)
        other = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=2, significance_threshold=1
        )
        other.add_sequence([0, 0, 0, 1, 1, 1])
        pst.merge_counts(other)
        self._assert_matches_cold(pst, probes)

    def test_decay_counts_drops_rows(self):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=1, significance_threshold=1000
        )
        pst.add_sequence([0, 0, 0, 1])
        probes = [[0, 1, 0, 1]]
        self._warm(pst, probes)
        # Flooring turns the root's {0: 3, 1: 1} into {0: 1}.
        pst.decay_counts(0.5)
        assert pst.root.next_total == 1
        self._assert_matches_cold(pst, probes)

    def test_from_dict_starts_cold(self, simple_pst):
        clone = self._cold(simple_pst)
        assert all(node.log_ratios is None for _, node in clone.iter_nodes())
        assert all(
            node.next_total == sum(node.next_counts.values())
            for _, node in clone.iter_nodes()
        )

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda pst: pickle.loads(pickle.dumps(pst))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_of_a_warm_tree_score_identically(self, clone):
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=2, significance_threshold=1, p_min=0.01
        )
        pst.add_sequence([0, 1, 1, 0, 1, 0, 0, 1])
        probes = [[0, 1, 0, 1], [1, 1, 0, 0, 1]]
        self._warm(pst, probes)
        before = [similarity(pst, probe, self.BG) for probe in probes]
        copied = clone(pst)
        assert [similarity(copied, probe, self.BG) for probe in probes] == before
        # The copy's rows are its own: mutating it leaves the original's
        # scores alone.
        copied.add_sequence([1, 1, 1, 1])
        self._assert_matches_cold(copied, probes)
        assert [similarity(pst, probe, self.BG) for probe in probes] == before


    def test_rows_follow_the_scoring_background(self):
        """A row entry is ``log P̂ − log p``: scoring under backgrounds
        A, B and A again, then ``log_symbol_ratios`` under B, each reads
        as a cold copy does."""
        pst = ProbabilisticSuffixTree(
            alphabet_size=2, max_depth=2, significance_threshold=1, p_min=0.01
        )
        pst.add_sequence([0, 1, 1, 0, 1, 0, 0, 1])
        probes = [[0, 1, 0, 1], [1, 1, 0, 0, 1]]
        other = np.array([0.8, 0.2])
        for background in (self.BG, other, self.BG):
            cold = self._cold(pst)
            for probe in probes:
                assert similarity(pst, probe, background) == similarity(
                    cold, probe, background
                )
        assert log_symbol_ratios(pst, probes[0], other) == log_symbol_ratios(
            self._cold(pst), probes[0], other
        )


class TestTransitionTable:
    """The scorer's cached transitions never outlive the counts they
    came from.

    Each test warms the table so that one entry points at a prediction
    node, changes the tree through one invalidation site so that the
    entry must move, and compares scores with the root-walk oracle
    ``similarity_bruteforce`` (``tests/oracles.py``). Deleting the site's invalidation makes
    the stale entry visible.
    """

    BG = np.array([0.5, 0.5])

    def _assert_matches_bruteforce(self, pst, probes):
        for probe in probes:
            result = similarity(pst, probe, self.BG)
            brute, segment = similarity_bruteforce(pst, probe, self.BG)
            assert result.log_similarity == pytest.approx(brute)
            assert (result.best_start, result.best_end) == segment

    def _warm(self, pst, probes):
        for probe in probes:
            similarity(pst, probe, self.BG)

    @staticmethod
    def _tree(threshold, max_depth, *sequences):
        return ProbabilisticSuffixTree.from_sequences(
            list(sequences), alphabet_size=2, max_depth=max_depth,
            significance_threshold=threshold,
        )

    def test_scoring_fills_the_table_of_a_closed_tree(self):
        pst = self._tree(2, 1, [1, 0, 1, 1])
        table, closed = pst.transitions()
        assert closed and not table
        self._warm(pst, [[0, 0, 1]])
        # "0" occurs once (< c), so the 0-transition out of the root
        # stays at the root.
        assert table[pst.root][0] is pst.root

    def test_crossing_in_the_main_loop(self):
        pst = self._tree(2, 1, [1, 0, 1, 1])
        probes = [[0, 0, 1]]
        self._warm(pst, probes)
        # The "0" before the final 1 reaches c in the main loop; the
        # terminal loop only bumps the already significant "1".
        pst.add_sequence([0, 1])
        assert pst.count_of([0]) == 2
        self._assert_matches_bruteforce(pst, probes)

    def test_crossing_in_the_terminal_context_loop(self):
        pst = self._tree(2, 1, [1, 0, 1, 1])
        probes = [[0, 0, 1]]
        self._warm(pst, probes)
        # The trailing "0" precedes no symbol: only the terminal loop
        # counts it.
        pst.add_sequence([1, 0])
        assert pst.count_of([0]) == 2
        self._assert_matches_bruteforce(pst, probes)

    def test_node_creation_at_threshold_one(self):
        pst = self._tree(1, 2, [0, 0, 0])
        probes = [[1, 1, 0]]
        self._warm(pst, probes)
        assert pst.transitions()[0][pst.root][1] is pst.root
        # Creating "1" at count 1 = c is a crossing.
        pst.add_sequence([1, 0])
        self._assert_matches_bruteforce(pst, probes)

    def test_crossing_deep_in_the_tree(self):
        # w = "010" = v·a with v = "01": only 0-entries of rows under
        # "01" may move.
        pst = self._tree(2, 3, [0, 1, 0, 1, 1, 0, 0])
        probes = [[0, 1, 0, 1, 0], [1, 0, 1, 0, 0]]
        self._warm(pst, probes)
        pst.add_sequence([1, 0, 1, 0])
        self._assert_matches_bruteforce(pst, probes)

    def test_decay_clears_the_table(self):
        pst = self._tree(2, 1, [0, 0, 1])
        probes = [[0, 0, 0]]
        self._warm(pst, probes)
        # "0" falls from 2 to 1 (< c) but survives min_count=1.
        pst.decay_counts(0.5)
        assert pst.count_of([0]) == 1
        self._assert_matches_bruteforce(pst, probes)
        assert pst.transitions()[1]

    def test_merge_clears_the_table(self):
        pst = self._tree(2, 1, [1, 0, 1, 1])
        probes = [[0, 0, 1]]
        self._warm(pst, probes)
        pst.merge_counts(self._tree(2, 1, [0, 1]))
        assert pst.count_of([0]) == 2
        self._assert_matches_bruteforce(pst, probes)
        assert pst.transitions()[1]

    def test_merging_a_pruned_tree_stops_caching(self):
        pst = self._tree(1, 1, [0, 0, 1])
        pruned = self._tree(1, 1, [1, 1, 0])
        prune_to(pruned, 2, strategy="smallest_count", slack=1.0)
        assert not pruned.transitions()[1]
        pst.merge_counts(pruned)
        self._warm(pst, [[0, 1, 1]])
        table, closed = pst.transitions()
        assert not closed and not table

    def test_prune_clears_the_table_and_stops_caching(self):
        pst = self._tree(1, 1, [0, 0, 1])
        probes = [[0, 1, 1]]
        self._warm(pst, probes)
        # Drops "1" (count 1), which the warm 1-entry of "0" points at.
        assert prune_to(pst, 2, strategy="smallest_count", slack=1.0) == 1
        assert pst.count_of([1]) == 0
        self._assert_matches_bruteforce(pst, probes)
        table, closed = pst.transitions()
        assert not closed and not table

    def test_from_dict_of_a_tree_that_is_not_closed(self):
        # "10" is significant, its prefix "1" absent: the prediction
        # node after "…0" depends on the symbol before the 0.
        leaf = {"count": 3, "next": {"1": 3}, "children": {}}
        zero = {"count": 5, "next": {"0": 4, "1": 1}, "children": {"1": leaf}}
        pst = ProbabilisticSuffixTree.from_dict({
            "alphabet_size": 2, "max_depth": 2, "significance_threshold": 1,
            "root": {"count": 10, "next": {"0": 5, "1": 5}, "children": {"0": zero}},
        })
        assert not pst.transitions()[1]
        probes = [[1, 0, 1], [0, 1]]
        self._warm(pst, probes)
        assert not pst.transitions()[0]
        self._assert_matches_bruteforce(pst, probes)

    def test_from_dict_of_a_closed_tree_caches(self, simple_pst):
        clone = ProbabilisticSuffixTree.from_dict(simple_pst.to_dict())
        assert clone.transitions()[1]
