"""Invariants of ``ProbabilisticSuffixTree.decay_counts``.

Decay is the streaming engine's drift mechanism: counts are scaled by
a factor in (0, 1] and nodes falling below ``min_count`` are forgotten
subtree-and-all. These tests pin the properties the engine relies on —
probability vectors stay normalized, the significant-node set only
shrinks when no new data arrives, and the cached node bookkeeping
stays consistent with the real tree.
"""

import numpy as np
import pytest

from repro.core.pst import ProbabilisticSuffixTree
from repro.sequences.markov import random_markov_source


def build_tree(seed=0, sequences=40, length=50, alphabet_size=6, **kwargs):
    rng = np.random.default_rng(seed)
    source = random_markov_source(
        alphabet_size, order=1, rng=rng, concentration=0.1
    )
    kwargs.setdefault("max_depth", 4)
    kwargs.setdefault("significance_threshold", 3)
    kwargs.setdefault("p_min", 0.0)
    pst = ProbabilisticSuffixTree(alphabet_size=alphabet_size, **kwargs)
    for _ in range(sequences):
        pst.add_sequence(source.sample(length, rng))
    return pst


def all_contexts(pst):
    return [label for label, _ in pst.iter_nodes()]


class TestValidation:
    def test_rejects_out_of_range_factor(self):
        pst = build_tree()
        with pytest.raises(ValueError, match="factor"):
            pst.decay_counts(0.0)
        with pytest.raises(ValueError, match="factor"):
            pst.decay_counts(1.5)
        with pytest.raises(ValueError, match="factor"):
            pst.decay_counts(-0.5)

    def test_rejects_bad_min_count(self):
        pst = build_tree()
        with pytest.raises(ValueError, match="min_count"):
            pst.decay_counts(0.5, min_count=0)

    def test_factor_one_is_a_noop(self):
        pst = build_tree()
        before = pst.to_dict()
        assert pst.decay_counts(1.0) == 0
        assert pst.to_dict() == before


class TestProbabilityNormalization:
    def test_vectors_stay_normalized_after_decay(self):
        pst = build_tree()
        pst.decay_counts(0.7)
        for context in all_contexts(pst):
            vector = pst.probability_vector(context)
            assert np.all(vector >= 0.0)
            assert vector.sum() == pytest.approx(1.0)

    def test_vectors_stay_normalized_under_repeated_decay(self):
        pst = build_tree(p_min=0.01)
        for _ in range(5):
            pst.decay_counts(0.6, min_count=2)
            for context in all_contexts(pst):
                vector = pst.probability_vector(context)
                assert vector.sum() == pytest.approx(1.0)

    def test_single_probabilities_match_vector(self):
        pst = build_tree()
        pst.decay_counts(0.8)
        for context in all_contexts(pst)[:20]:
            vector = pst.probability_vector(context)
            for symbol in range(pst.alphabet_size):
                assert pst.probability(symbol, context) == pytest.approx(
                    vector[symbol]
                )


class TestMonotoneShrink:
    def test_significant_set_shrinks_monotonically(self):
        # With no new data, decay can only move counts down, so the
        # set of significant nodes can only lose members.
        pst = build_tree(sequences=60)
        threshold = pst.significance_threshold

        def significant_labels():
            return {
                label
                for label, node in pst.iter_nodes()
                if node.count >= threshold
            }

        previous = significant_labels()
        for _ in range(8):
            pst.decay_counts(0.75)
            current = significant_labels()
            assert current <= previous
            previous = current

    def test_node_count_never_grows_under_decay(self):
        pst = build_tree(sequences=60)
        previous = pst.node_count
        for _ in range(8):
            pst.decay_counts(0.7, min_count=2)
            assert pst.node_count <= previous
            previous = pst.node_count

    def test_counts_scale_by_floor(self):
        pst = build_tree()
        snapshot = {
            label: node.count for label, node in pst.iter_nodes()
        }
        pst.decay_counts(0.5)
        for label, node in pst.iter_nodes():
            assert node.count == int(snapshot[label] * 0.5)

    def test_decay_to_nothing_leaves_bare_root(self):
        pst = build_tree()
        for _ in range(64):
            pst.decay_counts(0.5)
            if pst.node_count == 1:
                break
        assert pst.node_count == 1
        assert pst.root.children == {}
        assert pst.root.next_counts == {}


class TestBookkeepingConsistency:
    def test_recount_agrees_after_decay_pruning(self):
        pst = build_tree(sequences=60)
        for _ in range(4):
            pst.decay_counts(0.6, min_count=2)
            cached = pst.node_count
            assert pst.recount_nodes() == cached

    def test_stats_agree_with_tree_walk_after_decay(self):
        pst = build_tree(sequences=60)
        pst.decay_counts(0.5, min_count=2)
        walked = list(pst.iter_nodes())
        assert pst.node_count == len(walked)
        assert pst.significant_node_count() == sum(
            1 for _, node in walked if node.count >= pst.significance_threshold
        )
        assert pst.depth() == max(len(label) for label, _ in walked)

    def test_child_counts_stay_bounded_by_parent(self):
        # The suffix-trie invariant decay must preserve: floor-scaling
        # keeps every child count <= its parent's count.
        pst = build_tree(sequences=60)
        pst.decay_counts(0.55, min_count=1)
        stack = [pst.root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                assert child.count <= node.count
                stack.append(child)

    def test_removed_count_matches_node_delta(self):
        pst = build_tree(sequences=60)
        before = pst.node_count
        removed = pst.decay_counts(0.4, min_count=3)
        assert removed == before - pst.node_count

    def test_serialization_roundtrip_after_decay(self):
        pst = build_tree()
        pst.decay_counts(0.6, min_count=2)
        clone = ProbabilisticSuffixTree.from_dict(pst.to_dict())
        assert clone.node_count == pst.node_count
        assert clone.to_dict() == pst.to_dict()
