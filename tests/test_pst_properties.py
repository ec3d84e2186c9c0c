"""Property-based tests (hypothesis) for the probabilistic suffix tree."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import similarity_bruteforce
from repro.core.pst import ProbabilisticSuffixTree
from repro.core.similarity import similarity

sequences = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
    min_size=1,
    max_size=6,
)


def reference_count(seqs, segment):
    """Occurrences of *segment* across all sequences."""
    total = 0
    m = len(segment)
    for seq in seqs:
        total += sum(
            1 for i in range(len(seq) - m + 1) if seq[i : i + m] == segment
        )
    return total


@settings(max_examples=60, deadline=None)
@given(sequences, st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_counts_match_reference(seqs, segment):
    """Every node count equals the true occurrence count of its label."""
    pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=3)
    for seq in seqs:
        pst.add_sequence(seq)
    assert pst.count_of(segment) == reference_count(seqs, segment)


@settings(max_examples=60, deadline=None)
@given(sequences)
def test_root_count_is_total_length(seqs):
    pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=3)
    for seq in seqs:
        pst.add_sequence(seq)
    assert pst.total_symbols == sum(len(s) for s in seqs)


@settings(max_examples=60, deadline=None)
@given(sequences)
def test_child_counts_bounded_by_parent(seqs):
    """A child's label extends the parent's, so its count can't exceed it."""
    pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=4)
    for seq in seqs:
        pst.add_sequence(seq)
    for _, node in pst.iter_nodes():
        for child in node.children.values():
            assert child.count <= node.count


@settings(max_examples=60, deadline=None)
@given(sequences)
def test_next_counts_consistent_with_children(seqs):
    """The next-symbol total of a node equals its count minus the
    occurrences of its label at a sequence end."""
    pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=3)
    for seq in seqs:
        pst.add_sequence(seq)
    for label, node in pst.iter_nodes():
        if label == ():
            continue
        m = len(label)
        terminal = sum(1 for seq in seqs if tuple(seq[-m:]) == label)
        assert node.next_total == node.count - terminal


@settings(max_examples=60, deadline=None)
@given(sequences, st.lists(st.integers(0, 3), min_size=0, max_size=5))
def test_probability_vector_normalised(seqs, context):
    pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=3, p_min=1e-3)
    for seq in seqs:
        pst.add_sequence(seq)
    vec = pst.probability_vector(context)
    assert np.isclose(vec.sum(), 1.0)
    assert (vec >= 0).all()


@settings(max_examples=60, deadline=None)
@given(sequences, st.lists(st.integers(0, 3), min_size=0, max_size=5))
def test_prediction_node_is_significant_suffix(seqs, context):
    """The prediction node's label is a significant suffix of the context."""
    pst = ProbabilisticSuffixTree(
        alphabet_size=4, max_depth=3, significance_threshold=2
    )
    for seq in seqs:
        pst.add_sequence(seq)
    suffix = pst.longest_significant_suffix(context)
    assert tuple(context[len(context) - len(suffix) :]) == suffix
    if suffix:
        assert pst.count_of(list(suffix)) >= 2


@settings(max_examples=40, deadline=None)
@given(sequences)
def test_serialization_roundtrip(seqs):
    pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=3)
    for seq in seqs:
        pst.add_sequence(seq)
    clone = ProbabilisticSuffixTree.from_dict(pst.to_dict())
    assert clone.node_count == pst.node_count == clone.recount_nodes()

    def layout(tree):
        # A list in walk order: equal only if children and next-symbol
        # dicts keep their order too.
        return [
            (label, node.count, list(node.next_counts.items()),
             node.next_total, list(node.children))
            for label, node in tree.iter_nodes()
        ]

    assert layout(clone) == layout(pst)


@settings(max_examples=40, deadline=None)
@given(sequences)
def test_node_count_cache_accurate(seqs):
    pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=3)
    for seq in seqs:
        pst.add_sequence(seq)
    cached = pst.node_count
    assert pst.recount_nodes() == cached


# -- per-node cache coherence ----------------------------------------------------


def assert_matches_bruteforce(result, pst, probe, background):
    brute, segment = similarity_bruteforce(pst, probe, background)
    assert math.isclose(result.log_similarity, brute, rel_tol=1e-9, abs_tol=1e-9)
    assert (result.best_start, result.best_end) == segment


symbols4 = st.lists(st.integers(0, 3), min_size=1, max_size=25)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), symbols4),
        st.tuples(st.just("merge"), st.lists(symbols4, min_size=1, max_size=3)),
        st.tuples(
            st.just("decay"), st.sampled_from([0.25, 0.5, 0.75, 0.9]), st.integers(1, 2)
        ),
        st.tuples(st.just("roundtrip")),
        st.tuples(st.just("score"), symbols4),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    operations,
    st.lists(symbols4, min_size=1, max_size=3),
    st.sampled_from([None, 8, 20]),
    st.sampled_from([0.0, 0.01]),
    st.integers(1, 3),
)
def test_node_caches_stay_coherent(ops, probes, max_nodes, p_min, threshold):
    """``next_total``, the lazily filled ``log_ratios`` rows and the
    transition table track every mutation — insertion, merging, decay,
    budget pruning and (de)serialization: a warm tree scores exactly
    like a cold copy, and both agree with the root-walk oracle
    ``similarity_bruteforce`` from ``tests/oracles.py`` (a cold copy
    runs the table too)."""
    params = dict(
        alphabet_size=4, max_depth=3, significance_threshold=threshold,
        p_min=p_min, max_nodes=max_nodes,
    )
    background = np.array([0.4, 0.3, 0.2, 0.1])
    pst = ProbabilisticSuffixTree(**params)
    for op in ops:
        kind = op[0]
        if kind == "add":
            pst.add_sequence(op[1])
        elif kind == "merge":
            pst.merge_counts(ProbabilisticSuffixTree.from_sequences(op[1], **params))
        elif kind == "decay":
            pst.decay_counts(op[1], min_count=op[2])
        elif kind == "roundtrip":
            pst = ProbabilisticSuffixTree.from_dict(pst.to_dict())
        else:
            similarity(pst, op[1], background)
        for _, node in pst.iter_nodes():
            assert node.next_total == sum(node.next_counts.values())
        cold = ProbabilisticSuffixTree.from_dict(pst.to_dict())
        for probe in probes:
            warm = similarity(pst, probe, background)
            assert warm == similarity(cold, probe, background)
            assert_matches_bruteforce(warm, pst, probe, background)


@pytest.mark.parametrize("max_nodes", [None, 60])
@pytest.mark.parametrize("p_min", [0.0, 0.02])
@pytest.mark.parametrize("max_depth", [1, 6])
@pytest.mark.parametrize("threshold", [1, 4])
def test_interleaved_absorb_and_score_match_bruteforce(
    threshold, max_depth, p_min, max_nodes
):
    """Seeded fit-like interleaving: absorbs (segments shorter and
    longer than ``max_depth``) between scorings, with decays, merges of
    closed and of pruned trees, and a reload of a tree that is not
    closed. Every score agrees with ``similarity_bruteforce``
    (``tests/oracles.py``)."""
    params = dict(
        alphabet_size=4, max_depth=max_depth, significance_threshold=threshold,
        p_min=p_min, max_nodes=max_nodes,
    )
    rng = np.random.default_rng(threshold * 1000 + max_depth * 100 + (max_nodes or 0))
    background = np.array([0.4, 0.3, 0.2, 0.1])

    def draw(low, high):
        return [int(s) for s in rng.integers(0, 4, size=int(rng.integers(low, high)))]

    pst = ProbabilisticSuffixTree.from_sequences([draw(10, 30)], **params)
    for step in range(60):
        probe = draw(1, 25)
        assert_matches_bruteforce(similarity(pst, probe, background), pst, probe, background)
        if step == 40:
            # Budget pruning may have opened the tree already; without a
            # budget it is still closed and caching.
            assert pst.transitions()[1] or max_nodes is not None
            pruned = ProbabilisticSuffixTree.from_sequences(
                [draw(20, 40)], **{**params, "max_nodes": 3}
            )
            pst.merge_counts(pruned)
            assert not pst.transitions()[1]
        elif step % 10 == 3:
            pst.decay_counts(0.8)
        elif step % 10 == 7:
            pst.merge_counts(ProbabilisticSuffixTree.from_sequences([draw(5, 20)], **params))
        else:
            pst.add_sequence(draw(1, 2 * max_depth + 2))

    # A hand-built tree that is not closed: "10" significant, "1" absent.
    leaf = {"count": 3, "next": {"1": 3}, "children": {}}
    zero = {"count": 5, "next": {"0": 4, "1": 1}, "children": {"1": leaf}}
    loaded = ProbabilisticSuffixTree.from_dict({
        "alphabet_size": 2, "max_depth": 2, "significance_threshold": 1,
        "p_min": p_min,
        "root": {"count": 10, "next": {"0": 5, "1": 5}, "children": {"0": zero}},
    })
    assert not loaded.transitions()[1]
    uniform = np.array([0.5, 0.5])
    for step in range(20):
        probe = [int(s) for s in rng.integers(0, 2, size=int(rng.integers(1, 12)))]
        assert_matches_bruteforce(similarity(loaded, probe, uniform), loaded, probe, uniform)
        if step % 5 == 4:
            loaded.add_sequence(probe)
