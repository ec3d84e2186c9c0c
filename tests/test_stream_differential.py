"""Differential test: the stream's decisions against two replay oracles.

With maintenance off, ``StreamingCluseq`` must make exactly the join
decisions of a one-at-a-time replay of the same sequences on the same
starting model, absorb the same segments and leave the same models
behind. The replay scores each sequence on the replay's live models
with one of two backends:

* ``reference`` — ``ClusteringResult.assign_and_absorb``, the
  reference DP's ``score_row`` over every tree;
* ``vectorized`` — a fresh batch-kernel call per sequence
  (:class:`~repro.core.backends.PstBatchScorer`), whose matrix column
  feeds the same ``join_best`` rule as ``(logs, bounds)``. Each
  sequence gets a scorer built on the live trees, so a tree the
  previous join wrote is flattened afresh and its scores are never
  stale.
"""

import pytest

from repro.core.backends import PstBatchScorer
from repro.core.examine import join_best
from repro.core.persistence import result_from_dict, result_to_dict
from repro.stream import (
    DecayPolicy,
    StreamConfig,
    StreamingCluseq,
    drifting_markov_stream,
)

ALPHABET_SIZE = 8


def reference_replay(result, sequences, first_index):
    return [result.assign_and_absorb(seq) for seq in sequences]


def vectorized_replay(result, sequences, first_index):
    replayed = []
    for offset, seq in enumerate(sequences):
        index = first_index + offset
        clusters = result.clusters
        # A scorer per sequence: the last join wrote a tree, which takes
        # it off an older scorer's rows.
        scorer = PstBatchScorer(result.background, [c.pst for c in clusters])
        matrix = scorer.score_matrix_full([seq])
        logs = matrix.log_z[:, 0].tolist()
        bounds = [
            bound
            for pair in zip(matrix.best_start[:, 0], matrix.best_end[:, 0])
            for bound in map(int, pair)
        ]
        cluster = join_best(
            index, seq, clusters, logs, bounds, result.final_log_threshold
        )
        cid = None if cluster is None else cluster.cluster_id
        result.assignments[index] = set() if cid is None else {cid}
        replayed.append(cid)
    return replayed


#: Parameter id -> replay oracle; the ids name the two scoring backends.
REPLAYS = {"reference": reference_replay, "vectorized": vectorized_replay}


@pytest.fixture(scope="module")
def stream():
    return drifting_markov_stream(
        240, 120, alphabet_size=ALPHABET_SIZE, concentration=0.05, seed=13
    ).sequences


def quiet_config(batch_size):
    """Maintenance off: every batch is pure join-or-pool."""
    return StreamConfig(
        batch_size=batch_size,
        pool_size=512,
        reseed_every=0,
        consolidate_every=0,
    )


def run_engine(engine, sequences, batch_size):
    assigned = []
    for start in range(0, len(sequences), batch_size):
        assigned.extend(engine.ingest_batch(sequences[start : start + batch_size]))
    return assigned


def cluster_state(clusters):
    """Id, absorb count, model size and every membership record."""
    return [
        (
            cluster.cluster_id,
            cluster.segments_absorbed,
            cluster.pst.node_count,
            [
                (m.sequence_index, m.log_similarity, m.best_start, m.best_end)
                for m in map(cluster.membership_of, sorted(cluster.members))
            ],
        )
        for cluster in clusters
    ]


@pytest.fixture(scope="module")
def warm_model(stream):
    """A model grown from the first regime's opening sequences."""
    engine = StreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=StreamConfig(
            batch_size=10,
            pool_size=64,
            reseed_every=2,
            reseed_k=2,
            reseed_min_pool=5,
            consolidate_every=8,
            decay=DecayPolicy(factor=0.9, every_batches=6),
            seed=3,
        ),
    )
    run_engine(engine, stream[:80], 10)
    assert engine.result.clusters
    return result_to_dict(engine.result)


@pytest.mark.parametrize("batch_size", [1, 32])
@pytest.mark.parametrize("backend", list(REPLAYS))
def test_quiet_stream_equals_assign_and_absorb_replay(
    stream, warm_model, backend, batch_size
):
    tail = stream[80:]
    engine = StreamingCluseq(
        result_from_dict(warm_model), config=quiet_config(batch_size)
    )
    first_index = engine.result.next_sequence_index()
    assigned = run_engine(engine, tail, batch_size)

    replay = result_from_dict(warm_model)
    replayed = REPLAYS[backend](replay, tail, first_index)
    assert assigned == replayed
    assert any(cid is not None for cid in replayed)
    assert any(cid is None for cid in replayed)
    assert cluster_state(engine.result.clusters) == cluster_state(replay.clusters)
    assert engine.result.assignments == replay.assignments
