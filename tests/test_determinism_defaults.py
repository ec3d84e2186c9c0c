"""Regression tests for the seeded rng-fallback policy (CLQ002).

The invariant checker's determinism rule surfaced call sites that
created unseeded generators when the caller omitted ``rng``. The fix
gives every such function a fixed seed-0 fallback *per call*: rng-less
calls are reproducible, and two identical rng-less calls return the
same output. These tests pin that contract.
"""

from __future__ import annotations

import numpy as np

from repro.core.cluseq import ClusteringResult, CluseqParams
from repro.core.pst import ProbabilisticSuffixTree
from repro.sequences.markov import random_markov_source


def test_markov_sample_rngless_is_deterministic():
    source = random_markov_source(4, order=1, rng=np.random.default_rng(7))
    assert source.sample(50) == source.sample(50)


def test_random_markov_source_rngless_is_deterministic():
    a = random_markov_source(4, order=1)
    b = random_markov_source(4, order=1)
    assert a.sample(30, np.random.default_rng(1)) == b.sample(
        30, np.random.default_rng(1)
    )


def test_pst_sample_rngless_is_deterministic():
    pst = ProbabilisticSuffixTree(
        alphabet_size=2, max_depth=3, significance_threshold=2
    )
    pst.add_sequence([0, 1, 0, 1, 0, 1, 0, 1])
    assert pst.sample(30) == pst.sample(30)


def test_assign_and_absorb_without_clusters_records_outlier():
    """Empty clusterings must record the sequence as an outlier
    (regression guard for the typed rewrite of the best-pick loop)."""
    result = ClusteringResult(
        clusters=[],
        assignments={},
        params=CluseqParams(),
        background=np.full(2, 0.5),
        final_log_threshold=0.0,
    )
    assert result.assign_and_absorb([0, 1, 0]) is None
    assert result.assignments == {0: set()}
    # A second outlier gets the next index, not a clobbered slot.
    assert result.assign_and_absorb([1, 0, 1]) is None
    assert result.assignments == {0: set(), 1: set()}
