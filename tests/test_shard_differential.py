"""Differential properties of the sharded engine.

Three contracts, each checked over seeded fuzz (drifting Markov
sources with varying seeds and drift points):

1. **shards=1 degenerates exactly.** A single-shard engine dispatches
   every global batch whole to shard 0, so its shard must be
   bit-identical to a plain :class:`StreamingCluseq` fed the same
   stream — clusters, pool, assignments, counters.
2. **Runner invariance.** The on-disk state never depended on the
   runner: a state dir whose manifest names the retired ``process``
   runner recovers in-process to exactly the state of an in-process
   run of the same stream.
3. **Repeat-run determinism.** Any configuration run twice over the
   same stream lands on the same state, and recovery from a durable
   run is stable under repeated recover calls.
"""

import json
import shutil
from dataclasses import asdict
from pathlib import Path

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

#: A durable state dir written by the retired one-process-per-shard
#: runner: ``run_sharded(2, make_stream(*FUZZ_SEEDS[0]), state_dir,
#: runner="process")`` before that runner was removed.
PROCESS_RUNNER_STATE = Path(__file__).parent / "golden" / "shard_process_runner"

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
    kwargs.setdefault("checkpoint_every", 3)
    kwargs.setdefault("seed", 3)
    return StreamConfig(**kwargs)


def make_sharded(shards, state_dir=None):
    config = ShardConfig(
        shards=shards,
        consolidate_every=4,
        merge_threshold=0.8,
        stream=make_stream_config(),
    )
    return ShardedStreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=config,
        state_dir=state_dir,
    )


def sharded_digest(engine):
    return json.dumps(engine.shard_states(), sort_keys=True)


def run_sharded(shards, stream, state_dir=None):
    engine = make_sharded(shards, state_dir)
    for seq in stream.sequences:
        engine.ingest(seq)
    engine.flush()
    if state_dir is not None:
        engine.checkpoint()
    digest = sharded_digest(engine)
    engine.close()
    return digest


def plain_engine_digest(stream):
    """A plain streaming engine's state, shaped like a shard digest."""
    engine = StreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=make_stream_config(),
    )
    engine.run(stream.sequences)
    # Mirror shard_state_digest: raw dataclass fields, checkpoint
    # cadence excluded (it differs across crash schedules by design).
    stats = asdict(engine.stats())
    stats.pop("checkpoints_written")
    return json.dumps(
        [
            {
                "result": result_to_dict(engine.result, engine.alphabet),
                "pool": engine.pool.to_list(),
                "stats": stats,
                # A lone shard never receives a cross-shard plan.
                "last_round": -1,
            }
        ],
        sort_keys=True,
    )


class TestSingleShardDegeneration:
    @pytest.mark.parametrize(("seed", "drift_at"), FUZZ_SEEDS)
    def test_one_shard_is_bit_identical_to_plain_engine(
        self, seed, drift_at
    ):
        stream = make_stream(seed, drift_at)
        assert run_sharded(1, stream) == plain_engine_digest(stream)

    def test_one_shard_durable_matches_plain_engine(self, tmp_path):
        stream = make_stream(*FUZZ_SEEDS[0])
        digest = run_sharded(1, stream, state_dir=tmp_path / "state")
        assert digest == plain_engine_digest(stream)


class TestRunnerInvariance:
    def test_cross_runner_resume(self, tmp_path):
        """A state dir whose manifest names the ``process`` runner
        resumes in-process, onto exactly the in-process run's state."""
        manifest = json.loads(
            (PROCESS_RUNNER_STATE / "manifest.json").read_text()
        )
        assert manifest["config"]["runner"] == "process"
        state_dir = tmp_path / "state"
        shutil.copytree(PROCESS_RUNNER_STATE, state_dir)
        recovered = ShardedStreamingCluseq.recover(state_dir)
        assert recovered.config.runner == "inprocess"
        recovered_digest = sharded_digest(recovered)
        recovered.close()
        stream = make_stream(*FUZZ_SEEDS[0])
        expected = run_sharded(2, stream, state_dir=tmp_path / "inprocess")
        assert recovered_digest == expected


class TestRepeatRunDeterminism:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_identical_runs_land_on_identical_state(self, shards):
        stream = make_stream(*FUZZ_SEEDS[1])
        assert run_sharded(shards, stream) == run_sharded(shards, stream)

    def test_double_recovery_is_stable(self, tmp_path):
        stream = make_stream(*FUZZ_SEEDS[0])
        state_dir = tmp_path / "state"
        durable = run_sharded(2, stream, state_dir=state_dir)
        once = ShardedStreamingCluseq.recover(state_dir)
        once_digest = sharded_digest(once)
        once.close()
        twice = ShardedStreamingCluseq.recover(state_dir)
        twice_digest = sharded_digest(twice)
        twice.close()
        assert once_digest == durable
        assert twice_digest == durable
