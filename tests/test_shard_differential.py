"""Differential properties of the sharded engine.

Two contracts, each checked over seeded fuzz (drifting Markov sources
with varying seeds and drift points):

1. **shards=1 degenerates exactly.** A single-shard engine dispatches
   every global batch whole to shard 0, so its shard must be
   bit-identical to a plain :class:`StreamingCluseq` fed the same
   stream — clusters, pool, assignments, counters.
2. **Repeat-run determinism.** Any configuration run twice over the
   same stream lands on the same state.
"""

import json

import pytest

from repro.core.persistence import result_to_dict
from repro.shard import ShardConfig, ShardedStreamingCluseq
from repro.stream import (
    DecayPolicy,
    StreamConfig,
    StreamingCluseq,
    drifting_markov_stream,
)

ALPHABET_SIZE = 8

FUZZ_SEEDS = [(11, 40), (23, 30), (47, 55)]


def make_stream(seed, drift_at):
    return drifting_markov_stream(
        90,
        drift_at,
        alphabet_size=ALPHABET_SIZE,
        mean_length=30,
        concentration=0.05,
        seed=seed,
    )


def make_stream_config(**kwargs):
    kwargs.setdefault("batch_size", 10)
    kwargs.setdefault("pool_size", 64)
    kwargs.setdefault("reseed_every", 2)
    kwargs.setdefault("reseed_k", 2)
    kwargs.setdefault("reseed_min_pool", 6)
    kwargs.setdefault("consolidate_every", 8)
    kwargs.setdefault("adjust_every", 5)
    kwargs.setdefault("decay", DecayPolicy(factor=0.9, every_batches=6))
    kwargs.setdefault("seed", 3)
    return StreamConfig(**kwargs)


def engine_state(engine):
    """Everything one streaming engine holds, JSON-able."""
    return {
        "result": result_to_dict(engine.result, engine.alphabet),
        "pool": engine.pool.to_list(),
        "stats": engine.stats().to_dict(),
    }


def run_sharded(shards, stream):
    config = ShardConfig(
        shards=shards,
        consolidate_every=4,
        merge_threshold=0.8,
        stream=make_stream_config(),
    )
    engine = ShardedStreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=config,
    )
    engine.run(stream.sequences)
    return json.dumps(
        [engine_state(handle.engine) for handle in engine.handles],
        sort_keys=True,
    )


def plain_engine_digest(stream):
    """A plain streaming engine's state, shaped like a one-shard digest."""
    engine = StreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=make_stream_config(),
    )
    engine.run(stream.sequences)
    return json.dumps([engine_state(engine)], sort_keys=True)


class TestSingleShardDegeneration:
    @pytest.mark.parametrize(("seed", "drift_at"), FUZZ_SEEDS)
    def test_one_shard_is_bit_identical_to_plain_engine(
        self, seed, drift_at
    ):
        stream = make_stream(seed, drift_at)
        assert run_sharded(1, stream) == plain_engine_digest(stream)


class TestRepeatRunDeterminism:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_identical_runs_land_on_identical_state(self, shards):
        stream = make_stream(*FUZZ_SEEDS[1])
        assert run_sharded(shards, stream) == run_sharded(shards, stream)
