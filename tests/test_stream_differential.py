"""Differential test: the stream's batch snapshot agrees with sequential scoring.

``StreamingCluseq`` scores each micro-batch against every cluster. It
scores the whole (cluster × batch) matrix up front in one kernel call
and rescores the pairs whose cluster absorbed a segment earlier in the
batch. The oracle here is :class:`SequentialStreamingCluseq`, an engine
that never takes a snapshot, so every pair goes through the reference
``similarity()`` DP one at a time. Both must make the same join
decisions, absorb the same segments and leave the same models, pool
and threshold behind — with maintenance (re-seed, decay, threshold
adjustment, consolidation) running on its schedule.

With maintenance off the engine must also equal a plain
``ClusteringResult.assign_and_absorb`` replay of the same sequences.

A stale pair costs one reference DP on the live tree, never a
re-flatten: the snapshot engine flattens each cluster at most once
per micro-batch, however many segments the batch absorbs.
"""

import pytest

from repro.core.persistence import result_from_dict, result_to_dict
from repro.obs import MetricsRegistry, use_registry
from repro.stream import (
    DecayPolicy,
    StreamConfig,
    StreamingCluseq,
    drifting_markov_stream,
)

ALPHABET_SIZE = 8


class SequentialStreamingCluseq(StreamingCluseq):
    """The reference oracle: no batch snapshot, so every (sequence,
    cluster) pair is scored by the per-pair ``similarity()`` DP."""

    def _snapshot(self, batch):
        return None


#: Parameter id -> engine class; the ids name the two scoring paths.
ENGINES = {"reference": SequentialStreamingCluseq, "vectorized": StreamingCluseq}


@pytest.fixture(scope="module")
def stream():
    return drifting_markov_stream(
        240, 120, alphabet_size=ALPHABET_SIZE, concentration=0.05, seed=13
    ).sequences


def maintained_config(batch_size):
    return StreamConfig(
        batch_size=batch_size,
        pool_size=64,
        reseed_every=2,
        reseed_k=2,
        reseed_min_pool=5,
        consolidate_every=8,
        adjust_every=5,
        decay=DecayPolicy(factor=0.9, every_batches=6),
        seed=3,
    )


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


def engine_state(engine, assigned):
    return {
        "assigned": assigned,
        "clusters": cluster_state(engine.result.clusters),
        "assignments": sorted(
            (index, sorted(ids)) for index, ids in engine.result.assignments.items()
        ),
        "pool": engine.pool.to_list(),
        "log_threshold": engine.log_threshold,
    }


@pytest.mark.parametrize("batch_size", [1, 32])
def test_backends_agree_with_maintenance_on(stream, batch_size):
    states = {}
    for backend, engine_class in ENGINES.items():
        engine = engine_class.cold_start(
            alphabet_size=ALPHABET_SIZE,
            similarity_threshold=10.0,
            significance_threshold=3,
            max_depth=4,
            config=maintained_config(batch_size),
        )
        assigned = run_engine(engine, stream, batch_size)
        states[backend] = engine_state(engine, assigned)
    assert states["reference"] == states["vectorized"]
    # The run must exercise both outcomes and the cluster lifecycle.
    assigned = states["reference"]["assigned"]
    assert any(cid is not None for cid in assigned)
    assert any(cid is None for cid in assigned)
    assert len(states["reference"]["clusters"]) >= 2


def test_vectorized_flattens_each_cluster_at_most_once_per_batch(stream):
    batch_size = 32
    engine = StreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=maintained_config(batch_size),
    )
    registry = MetricsRegistry()
    budget = 0
    with use_registry(registry):
        for start in range(0, len(stream), batch_size):
            budget += len(engine.result.clusters)
            engine.ingest_batch(stream[start : start + batch_size])
    flattened = registry.counter("backend.flatten_builds").value
    assert engine.stats().absorbed > budget  # absorbs alone would overrun it
    assert 0 < flattened <= budget


@pytest.fixture(scope="module")
def warm_model(stream):
    """A model grown from the first regime's opening sequences."""
    engine = SequentialStreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=maintained_config(10),
    )
    run_engine(engine, stream[:80], 10)
    assert engine.result.clusters
    return result_to_dict(engine.result)


@pytest.mark.parametrize("batch_size", [1, 32])
@pytest.mark.parametrize("backend", list(ENGINES))
def test_quiet_stream_equals_assign_and_absorb_replay(
    stream, warm_model, backend, batch_size
):
    tail = stream[80:]
    engine = ENGINES[backend](
        result_from_dict(warm_model), config=quiet_config(batch_size)
    )
    first_index = engine.result.next_sequence_index()
    assigned = run_engine(engine, tail, batch_size)

    replay = result_from_dict(warm_model)
    replayed = [
        replay.assign_and_absorb(seq, index=first_index + offset)
        for offset, seq in enumerate(tail)
    ]
    assert assigned == replayed
    assert any(cid is not None for cid in replayed)
    assert any(cid is None for cid in replayed)
    assert cluster_state(engine.result.clusters) == cluster_state(replay.clusters)
    assert engine.result.assignments == replay.assignments
