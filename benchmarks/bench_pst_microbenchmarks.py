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
from repro.sequences.markov import random_markov_source

ALPHABET = 20
LENGTH = 500


@pytest.fixture(scope="module")
def training_data():
    """Uniform random symbols as Python ints, the form the fit and the
    stream insert; no window repeats within a sequence, so this is the
    worst case of the insert's window counting."""
    rng = np.random.default_rng(0)
    return [rng.integers(0, ALPHABET, size=LENGTH).tolist() for _ in range(20)]


@pytest.fixture(scope="module")
def concentrated_data():
    """A concentrated first-order Markov source, drawn as the stream
    benchmarks draw their regimes (``concentration=0.05``): about 85% of
    the depth-6 context windows repeat one seen earlier in the same
    sequence, as a cluster's segments do."""
    rng = np.random.default_rng(1)
    source = random_markov_source(ALPHABET, order=1, rng=rng, concentration=0.05)
    return [source.sample(LENGTH, rng) for _ in range(20)]


@pytest.fixture(scope="module")
def fitted_pst(training_data):
    pst = ProbabilisticSuffixTree(
        alphabet_size=ALPHABET, max_depth=6, significance_threshold=5,
        p_min=1e-3 / ALPHABET,
    )
    for seq in training_data:
        pst.add_sequence(seq)
    return pst


def _insert_all(sequences):
    pst = ProbabilisticSuffixTree(
        alphabet_size=ALPHABET, max_depth=6, significance_threshold=5
    )
    for seq in sequences:
        pst.add_sequence(seq)
    return pst


def test_pst_insertion_throughput(benchmark, training_data):
    """Symbols/second of uniform random symbols inserted into a fresh PST."""
    pst = benchmark(_insert_all, training_data)
    assert pst.total_symbols == 20 * LENGTH


def test_pst_insertion_throughput_concentrated(benchmark, concentrated_data):
    """Symbols/second of a concentrated source inserted into a fresh PST."""
    pst = benchmark(_insert_all, concentrated_data)
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
    its first round every ``PSTNode.log_ratios`` entry it reads is
    cached. Here each 40-symbol absorb drops the rows along its contexts
    and the following score refills them: this is the cache-miss path.
    Every round starts from a cold copy of the fitted tree (built outside
    the timed region); 25 rounds, because the median of a handful moves
    by more than the regressions it should show.
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

    result = benchmark.pedantic(absorb_and_score, setup=cold_tree, rounds=25)
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
