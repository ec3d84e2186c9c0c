"""ScoreSnapshot: stale pairs are rescored on the live tree, not re-flattened.

A snapshot is a (cluster × batch) matrix scored up front by the batch
kernel. Once a join absorbs a segment into one cluster's PST, that
cluster's entries are stale: ``column()`` must score them with the
reference ``similarity()`` on the live model — without flattening the
mutated tree — and keep serving every other pair from the matrix.
"""

import numpy as np

from repro.core.backends import PstBatchScorer
from repro.core.cluster import Cluster
from repro.core.examine import ScoreSnapshot
from repro.core.pst import ProbabilisticSuffixTree
from repro.core.similarity import similarity
from repro.obs import MetricsRegistry, use_registry

ALPHABET_SIZE = 4


def make_clusters(rng, count):
    clusters = []
    for cluster_id in range(count):
        pst = ProbabilisticSuffixTree(
            alphabet_size=ALPHABET_SIZE, max_depth=3, significance_threshold=2
        )
        for _ in range(4):
            pst.add_sequence([int(s) for s in rng.integers(0, ALPHABET_SIZE, size=20)])
        clusters.append(Cluster(cluster_id, pst, seed_index=cluster_id))
    return clusters


def test_column_rescores_only_the_mutated_tree_with_the_reference_dp():
    rng = np.random.default_rng(5)
    background = np.full(ALPHABET_SIZE, 1.0 / ALPHABET_SIZE)
    clusters = make_clusters(rng, 3)
    batch = [
        [int(s) for s in rng.integers(0, ALPHABET_SIZE, size=length)]
        for length in (25, 18, 30)
    ]
    psts = [cluster.pst for cluster in clusters]
    matrix = PstBatchScorer(background).score_matrix_full(psts, batch)
    snapshot = ScoreSnapshot(psts, matrix, background)

    first = snapshot.column(clusters, 0, batch[0])
    clusters[1].join(0, batch[0], first.result_for(1))
    assert clusters[1].pst._flat_cache is None

    registry = MetricsRegistry()
    with use_registry(registry):
        scores = snapshot.column(clusters, 1, batch[1])
    live = similarity(clusters[1].pst, batch[1], background)
    assert scores.log_sims[1] == live.log_similarity
    assert scores.result_for(1) == live
    for position in (0, 2):
        assert scores.log_sims[position] == matrix.log_z[position, 1]
        assert scores.result_for(position) == matrix.result(position, 1)
    # The rescore walked the live tree; nothing re-flattened it.
    assert clusters[1].pst._flat_cache is None
    assert registry.counter("backend.prescore_stale_pairs").value == 1
