"""The window-counted insert lays out the tree exactly as a position walk.

``ProbabilisticSuffixTree.add_sequence`` counts the full-context
positions by their window and applies each distinct window once, with
its multiplicity. The oracle here is the position-by-position insert:
every position walks its ``max_depth`` context nodes and adds one. After
every insert the two trees must agree on the *ordered* layout — per
node, in walk order, ``count``, the ``next_counts`` items in key order,
``next_total`` and the ``children`` keys in order — and on
``node_count``, ``version`` and ``sequences_added``. Scoring between
inserts fills the transition tables, so a threshold crossing runs
``_forget_transitions``; both tables must match, and a warm score must
equal a cold ``from_dict`` copy's.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pytest

from repro.core.pruning import prune_to
from repro.core.pst import PSTNode, ProbabilisticSuffixTree
from repro.core.similarity import similarity

ALPHABET = 4
BACKGROUND = np.array([0.4, 0.3, 0.2, 0.1])


class PositionPST(ProbabilisticSuffixTree):
    """The oracle: the insert walks every position's context nodes."""

    def add_sequence(self, encoded: Sequence[int]) -> None:
        length = len(encoded)
        if length == 0:
            return
        threshold = self.significance_threshold
        crossed: list[Sequence[int]] = []
        root = self.root
        root.count += length
        root.next_total += length
        root.log_ratios = None
        for i in range(length):
            symbol = encoded[i]
            root.next_counts[symbol] = root.next_counts.get(symbol, 0) + 1
            node = root
            for j in range(i - 1, max(0, i - self.max_depth) - 1, -1):
                node = self._step(node, encoded[j])
                if node.count == threshold:
                    crossed.append(encoded[j:i])
                node.next_counts[symbol] = node.next_counts.get(symbol, 0) + 1
                node.next_total += 1
                node.log_ratios = None
        node = root
        for j in range(length - 1, max(0, length - self.max_depth) - 1, -1):
            node = self._step(node, encoded[j])
            if node.count == threshold:
                crossed.append(encoded[j:length])
        if crossed and self._transitions:
            self._forget_transitions(crossed)
        self._sequences_added += 1
        self._invalidate()
        if self.max_nodes is not None and self._node_count > self.max_nodes:
            prune_to(self, self.max_nodes, strategy=self.prune_strategy)

    def _step(self, node: PSTNode, symbol: int) -> PSTNode:
        child = node.children.get(symbol)
        if child is None:
            child = node.children[symbol] = PSTNode()
            self._node_count += 1
        child.count += 1
        return child


def layout(pst):
    """The tree's ordered layout and its bookkeeping."""
    nodes = [
        (
            label,
            node.count,
            list(node.next_counts.items()),
            node.next_total,
            list(node.children),
        )
        for label, node in pst.iter_nodes()
    ]
    return nodes, pst.node_count, pst.version, pst.sequences_added


def transition_table(pst):
    """The transition table with every node named by its label."""
    labels = {id(node): label for label, node in pst.iter_nodes()}
    table, closed = pst.transitions()
    return closed, {
        labels[id(node)]: [None if s is None else labels[id(s)] for s in row]
        for node, row in table.items()
    }


def markov_source(rng, length):
    """A concentrated source: each symbol is followed by one favourite."""
    out = [int(rng.integers(ALPHABET))]
    for _ in range(length - 1):
        favourite = (out[-1] + 1) % ALPHABET
        out.append(favourite if rng.random() < 0.85 else int(rng.integers(ALPHABET)))
    return out


def uniform_source(rng, length):
    return [int(s) for s in rng.integers(0, ALPHABET, size=length)]


SOURCES = {"markov": markov_source, "uniform": uniform_source}


def lengths(rng, max_depth):
    """Every length around the aggregation guard, then long sequences."""
    short = list(range(max(1, max_depth - 1), max_depth + 4))
    return short + [int(n) for n in rng.integers(60, 151, size=3)]


def assert_same(pst, oracle, probes):
    assert layout(pst) == layout(oracle)
    assert transition_table(pst) == transition_table(oracle)
    cold = ProbabilisticSuffixTree.from_dict(pst.to_dict())
    for probe in probes:
        warm = similarity(pst, probe, BACKGROUND)
        assert warm == similarity(oracle, probe, BACKGROUND)
        assert warm == similarity(cold, probe, BACKGROUND)


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("threshold", [1, 2, 3, 4])
@pytest.mark.parametrize("max_depth", [1, 2, 3, 4, 5, 6])
def test_insert_matches_position_walk(max_depth, threshold, source):
    rng = np.random.default_rng(100 * max_depth + 10 * threshold + len(source))
    draw = SOURCES[source]
    params = dict(
        alphabet_size=ALPHABET, max_depth=max_depth,
        significance_threshold=threshold,
    )
    pst = ProbabilisticSuffixTree(**params)
    oracle = PositionPST(**params)
    probes = [draw(rng, 40) for _ in range(2)]
    for length in lengths(rng, max_depth):
        sequence = draw(rng, length)
        pst.add_sequence(sequence)
        oracle.add_sequence(sequence)
        assert_same(pst, oracle, probes)


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("max_depth", [2, 4, 6])
def test_insert_matches_with_decay_merge_and_pruning(max_depth, source):
    """Decay, merges and a node budget interleaved with the inserts."""
    rng = np.random.default_rng(7 * max_depth + len(source))
    draw = SOURCES[source]
    params = dict(
        alphabet_size=ALPHABET, max_depth=max_depth, significance_threshold=3,
        p_min=0.01,
    )
    pst = ProbabilisticSuffixTree(**params)
    oracle = PositionPST(**params)
    probes = [draw(rng, 40) for _ in range(2)]
    for step in range(12):
        sequence = draw(rng, int(rng.integers(max_depth - 1, 120)))
        pst.add_sequence(sequence)
        oracle.add_sequence(sequence)
        if step % 4 == 1:
            pst.decay_counts(0.6, min_count=2)
            oracle.decay_counts(0.6, min_count=2)
        elif step % 4 == 3:
            other = ProbabilisticSuffixTree.from_sequences(
                [draw(rng, 50) for _ in range(2)], **params
            )
            pst.merge_counts(other)
            oracle.merge_counts(other)
        assert_same(pst, oracle, probes)

    budget = pst.node_count // 2
    pst.max_nodes = oracle.max_nodes = budget
    for _ in range(4):
        sequence = draw(rng, int(rng.integers(60, 151)))
        pst.add_sequence(sequence)
        oracle.add_sequence(sequence)
        assert pst.node_count <= budget
        assert_same(pst, oracle, probes)


def test_repeated_windows_cross_the_threshold_in_one_step():
    """A window seen ``m`` times moves its nodes' counts by ``m`` at once:
    a count that jumps past ``c`` still crosses it, and the transition
    entry it deepens is dropped."""
    params = dict(alphabet_size=ALPHABET, max_depth=2, significance_threshold=3)
    pst = ProbabilisticSuffixTree(**params)
    oracle = PositionPST(**params)
    for tree in (pst, oracle):
        tree.add_sequence([0, 1, 2, 3])
    probe = [0, 1, 2, 0, 1, 2, 3]
    assert_same(pst, oracle, [probe])
    # Node (0, 1) goes from count 1 to 5 in one window update.
    for tree in (pst, oracle):
        tree.add_sequence([0, 1, 2] * 4)
    assert pst.count_of([0, 1]) == 5
    assert_same(pst, oracle, [probe])
