"""Microbenchmarks of the PST and similarity hot paths.

Not a paper table — these document the raw throughput of the two
operations that dominate CLUSEQ's runtime (§4.7: each iteration is
N · k' similarity estimations plus the PST updates), so regressions in
the core loops are caught even when the end-to-end benches drift.
"""

import numpy as np
import pytest

from repro.core.pst import ProbabilisticSuffixTree
from repro.core.similarity import similarity

ALPHABET = 20
LENGTH = 500


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(0)
    return [list(rng.integers(0, ALPHABET, size=LENGTH)) for _ in range(20)]


@pytest.fixture(scope="module")
def fitted_pst(training_data):
    pst = ProbabilisticSuffixTree(
        alphabet_size=ALPHABET, max_depth=6, significance_threshold=5,
        p_min=1e-3 / ALPHABET,
    )
    for seq in training_data:
        pst.add_sequence(seq)
    return pst


def test_pst_insertion_throughput(benchmark, training_data):
    """Symbols/second inserted into a fresh PST."""

    def build():
        pst = ProbabilisticSuffixTree(
            alphabet_size=ALPHABET, max_depth=6, significance_threshold=5
        )
        for seq in training_data:
            pst.add_sequence(seq)
        return pst

    pst = benchmark(build)
    assert pst.total_symbols == 20 * LENGTH


def test_similarity_throughput(benchmark, fitted_pst, training_data):
    """One similarity estimation of a 500-symbol sequence."""
    background = np.full(ALPHABET, 1.0 / ALPHABET)
    query = training_data[0]
    result = benchmark(similarity, fitted_pst, query, background)
    assert result.log_similarity == result.log_similarity  # finite


def test_similarity_after_absorb_throughput(benchmark, fitted_pst, training_data):
    """Ten absorb-then-score steps, as the fit's joins interleave them.

    ``test_similarity_throughput`` rescores an unchanged tree, so after
    its first round every ``PSTNode.log_probs`` entry it reads is cached.
    Here each 40-symbol absorb drops the rows along its contexts and the
    following score refills them: this is the cache-miss path. Every
    round starts from a cold copy of the fitted tree (built outside the
    timed region).
    """
    background = np.full(ALPHABET, 1.0 / ALPHABET)
    snapshot = fitted_pst.to_dict()
    query = training_data[0]
    segments = [training_data[2][k : k + 40] for k in range(0, 400, 40)]

    def cold_tree():
        return (ProbabilisticSuffixTree.from_dict(snapshot),), {}

    def absorb_and_score(pst):
        for segment in segments:
            pst.add_sequence(segment)
            result = similarity(pst, query, background)
        return result

    result = benchmark.pedantic(absorb_and_score, setup=cold_tree, rounds=5)
    assert result.log_similarity == result.log_similarity  # finite


def test_prediction_lookup_throughput(benchmark, fitted_pst, training_data):
    """Raw conditional-probability lookups (the innermost operation)."""
    query = training_data[1]

    def lookups():
        total = 0.0
        for i in range(1, len(query)):
            total += fitted_pst.probability(query[i], query[max(0, i - 6) : i])
        return total

    total = benchmark(lookups)
    assert total > 0
