"""Crash/chaos recovery for the sharded streaming engine.

The contract under test: a sharded engine killed at *any* durability
boundary — any ``os.fsync`` or ``os.replace`` of any shard's WAL or
checkpoint, the coordinator's dispatch WAL, the manifest — can be
rebuilt by ``ShardedStreamingCluseq.recover`` and,
after ingesting the rest of the stream, reaches state bit-identical to
a run that was never interrupted.

The sweep is exhaustive where it is cheapest and sharpest (every fsync
point at shards=2, every replace point at shards ∈ {1, 2, 4}) and
strided elsewhere. Fault injection lives in the pytest-free
``tests/chaos.py``.

``CHAOS_SMOKE=1`` (the CI shard-smoke job) strides every sweep harder
so the file finishes in seconds while still crossing each boundary
kind at least once.
"""

import json
import os

import pytest

from chaos import CrashPoint, FaultInjector, count_fault_points
from repro.shard import ShardConfig, ShardedStreamingCluseq
from repro.stream import (
    CheckpointError,
    DecayPolicy,
    StreamConfig,
    drifting_markov_stream,
)

ALPHABET_SIZE = 8

#: CI smoke mode: cross every boundary kind, skip the long tail.
SMOKE = bool(os.environ.get("CHAOS_SMOKE"))


@pytest.fixture(scope="module")
def stream():
    return drifting_markov_stream(
        80,
        40,
        alphabet_size=ALPHABET_SIZE,
        mean_length=30,
        concentration=0.05,
        seed=11,
    )


def make_config(shards):
    # Tight cadences on purpose: 8 global batches hit 2 consolidation
    # rounds, periodic checkpoints and decay, so the fault sweep
    # crosses every kind of durability boundary the engine has.
    return ShardConfig(
        shards=shards,
        consolidate_every=4,
        merge_threshold=0.8,
        stream=StreamConfig(
            batch_size=10,
            pool_size=64,
            reseed_every=2,
            reseed_k=2,
            reseed_min_pool=6,
            consolidate_every=8,
            adjust_every=5,
            decay=DecayPolicy(factor=0.9, every_batches=6),
            checkpoint_every=3,
            seed=3,
        ),
    )


def make_engine(config, state_dir):
    return ShardedStreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=config,
        state_dir=state_dir,
    )


def full_digest(engine):
    """Everything recovery must reproduce, JSON-normalized."""
    return json.dumps(
        {
            "shards": engine.shard_states(),
            "batches": engine.batches_ingested,
            "sequences": engine.sequences_ingested,
            "stats": {
                key: value
                for key, value in engine.stats().to_dict().items()
                if key != "per_shard"
            },
        },
        sort_keys=True,
    )


def feed(engine, sequences):
    for seq in sequences:
        engine.ingest(seq)
    engine.flush()


def reference_digest(shards, stream):
    """The uncrashed run (memory-only; durability must not change it)."""
    engine = make_engine(make_config(shards), None)
    feed(engine, stream.sequences)
    digest = full_digest(engine)
    engine.close()
    return digest


def abandon(engine):
    """Drop an engine as a kill would — but reap worker processes."""
    if engine is None:
        return
    for handle in engine.handles:
        try:
            handle.close()
        except Exception:
            pass


def recover_and_finish(config, state_dir, stream):
    """Recover (or restart, when nothing was durable) and feed the rest."""
    try:
        recovered = ShardedStreamingCluseq.recover(state_dir)
    except CheckpointError:
        # The crash predates a durable manifest: provably nothing was
        # ingested durably, so a cold start in place is the bit-exact
        # continuation (only *.tmp litter can exist in the dir).
        recovered = make_engine(config, state_dir)
    feed(recovered, stream.sequences[recovered.sequences_ingested :])
    recovered.checkpoint()
    digest = full_digest(recovered)
    recovered.close()
    return digest


def crash_points(config, tmp_path, stream, kind):
    """Dry-run the full workload and count its *kind* fault points."""

    def workload():
        engine = make_engine(config, tmp_path / "dry")
        feed(engine, stream.sequences)
        engine.checkpoint()
        engine.close()

    return count_fault_points(workload, kind=kind)


def run_chaos_sweep(shards, stream, tmp_path, kind, stride):
    config = make_config(shards)
    expected = reference_digest(shards, stream)
    total = crash_points(config, tmp_path, stream, kind)
    assert total > 0, f"workload performed no {kind} calls"
    points = list(range(1, total + 1))[::stride]
    for crash_at in points:
        state_dir = tmp_path / f"crash-{kind}-{crash_at}"
        injector = FaultInjector(crash_at=crash_at, kind=kind)
        engine = None
        crashed = False
        with injector.armed():
            try:
                engine = make_engine(config, state_dir)
                feed(engine, stream.sequences)
                engine.checkpoint()
            except CrashPoint:
                crashed = True
        assert crashed, f"injector never fired at {kind} #{crash_at}"
        abandon(engine)
        digest = recover_and_finish(config, state_dir, stream)
        assert digest == expected, (
            f"shards={shards}: recovery after a crash at {kind} "
            f"#{crash_at}/{total} diverged from the uncrashed run"
        )


class TestChaosInProcess:
    def test_every_fsync_boundary_two_shards(self, stream, tmp_path):
        run_chaos_sweep(2, stream, tmp_path, "fsync", stride=5 if SMOKE else 1)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_strided_fsync_boundaries(self, shards, stream, tmp_path):
        run_chaos_sweep(
            shards, stream, tmp_path, "fsync", stride=11 if SMOKE else 3
        )

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_every_replace_boundary(self, shards, stream, tmp_path):
        # os.replace publishes checkpoints and the manifest — few
        # sites, each one a distinct atomic-rename protocol to break.
        run_chaos_sweep(
            shards, stream, tmp_path, "replace", stride=3 if SMOKE else 1
        )

    def test_crash_during_recovery_recovers(self, stream, tmp_path):
        """Roll-forward itself dying must leave a recoverable dir."""
        config = make_config(2)
        expected = reference_digest(2, stream)
        state_dir = tmp_path / "state"
        engine = make_engine(config, state_dir)
        # Crash the first run mid-stream, past a consolidation round.
        injector = FaultInjector(crash_at=30, kind="fsync")
        with injector.armed():
            try:
                feed(engine, stream.sequences)
                engine.checkpoint()
            except CrashPoint:
                pass
        abandon(engine)
        # First recovery attempt dies while rolling forward.
        injector = FaultInjector(crash_at=3, kind="fsync")
        with injector.armed():
            try:
                ShardedStreamingCluseq.recover(state_dir)
            except CrashPoint:
                pass
        # Second attempt must still converge.
        digest = recover_and_finish(config, state_dir, stream)
        assert digest == expected
