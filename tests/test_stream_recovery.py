"""Deterministic crash recovery for the streaming engine.

The contract under test: with a state directory (write-ahead journal +
periodic checkpoints), an engine killed at *any* point mid-stream can
be rebuilt by ``StreamingCluseq.recover`` and — after ingesting the
rest of the stream — reach state bit-identical to an engine that ran
uninterrupted. Everything the engine does is a deterministic function
of (state, batch sequence), so replaying the journal suffix from the
last checkpoint reproduces the exact pre-crash state.

``TestCrashAtEveryBoundary`` kills the engine in place of every
``os.fsync`` and every ``os.replace`` of a run (the fault injector is
the pytest-free ``tests/chaos.py``), so every journal append and every
step of the atomic checkpoint write is a crash point.
"""

import json
import os

import pytest

from chaos import CrashPoint, FaultInjector, count_fault_points
from repro.core.persistence import result_to_dict
from repro.stream import (
    CheckpointError,
    DecayPolicy,
    JournalError,
    StreamConfig,
    StreamingCluseq,
    batched,
    checkpoint_path,
    drifting_markov_stream,
    journal_path,
)

ALPHABET_SIZE = 8


@pytest.fixture(scope="module")
def stream():
    return drifting_markov_stream(
        400, 200, alphabet_size=ALPHABET_SIZE, concentration=0.05, seed=11
    )


def make_config(**kwargs):
    kwargs.setdefault("batch_size", 20)
    kwargs.setdefault("pool_size", 128)
    kwargs.setdefault("reseed_every", 2)
    kwargs.setdefault("reseed_k", 2)
    kwargs.setdefault("reseed_min_pool", 6)
    kwargs.setdefault("consolidate_every", 8)
    kwargs.setdefault("decay", DecayPolicy(factor=0.9, every_batches=6))
    kwargs.setdefault("checkpoint_every", 4)
    kwargs.setdefault("seed", 3)
    return StreamConfig(**kwargs)


def make_engine(config, state_dir=None):
    return StreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=config,
        state_dir=state_dir,
    )


def feed_whole_batches(engine, sequences):
    """Ingest the whole batches of *sequences*; the partial tail batch
    is never handed over, as when a producer dies mid-batch."""
    for batch in batched(sequences, engine.config.batch_size):
        if len(batch) == engine.config.batch_size:
            engine.ingest_batch(batch)


def full_state(engine):
    """Everything that must match bit-for-bit, JSON-normalized."""
    return json.dumps(
        {
            "result": result_to_dict(engine.result),
            "pool": engine.pool.to_list(),
            "stats": {
                key: value
                for key, value in engine.stats().to_dict().items()
                # Checkpoint cadence differs between an interrupted and
                # an uninterrupted run by construction; everything else
                # must agree exactly.
                if key != "checkpoints_written"
            },
        },
        sort_keys=True,
    )


class TestCrashRecovery:
    @pytest.mark.parametrize("crash_after", [37, 170, 391])
    def test_recovery_is_bit_identical(self, stream, tmp_path, crash_after):
        config = make_config()

        # Reference: one engine consumes the whole stream, no crash.
        reference = make_engine(config, state_dir=tmp_path / "ref")
        with reference:
            reference.run(stream.sequences)
        expected = full_state(reference)

        # Crashed run: the producer read `crash_after` sequences, then
        # the engine is abandoned without close()/checkpoint() — as a
        # SIGKILL would.
        state_dir = tmp_path / "crashed"
        victim = make_engine(config, state_dir=state_dir)
        feed_whole_batches(victim, stream.sequences[:crash_after])
        del victim  # crash: the unsent partial batch is lost, journal survives

        # Journal only holds the fully-ingested batches.
        recovered = StreamingCluseq.recover(state_dir)
        applied = recovered.sequences_ingested
        assert applied == (crash_after // config.batch_size) * config.batch_size
        with recovered:
            recovered.run(stream.sequences[applied:])
        assert full_state(recovered) == expected

    def test_recovery_after_torn_journal_line(self, stream, tmp_path):
        config = make_config()
        state_dir = tmp_path / "state"
        victim = make_engine(config, state_dir=state_dir)
        feed_whole_batches(victim, stream.sequences[:100])
        # Simulate dying mid-append: garbage half-record at the tail.
        with open(journal_path(state_dir), "a", encoding="utf-8") as handle:
            handle.write('{"type": "batch", "n": 99, "sequences": [[1,')
        del victim
        recovered = StreamingCluseq.recover(state_dir)
        assert recovered.sequences_ingested == 100
        assert recovered.batches_ingested == 5

    def test_double_recovery_is_stable(self, stream, tmp_path):
        config = make_config()
        state_dir = tmp_path / "state"
        victim = make_engine(config, state_dir=state_dir)
        feed_whole_batches(victim, stream.sequences[:140])
        del victim
        first = StreamingCluseq.recover(state_dir)
        second = StreamingCluseq.recover(state_dir)
        assert full_state(first) == full_state(second)

    def test_recovered_engine_keeps_journaling(self, stream, tmp_path):
        config = make_config()
        state_dir = tmp_path / "state"
        victim = make_engine(config, state_dir=state_dir)
        feed_whole_batches(victim, stream.sequences[:60])
        del victim
        recovered = StreamingCluseq.recover(state_dir)
        with recovered:
            recovered.run(stream.sequences[60:120])
        again = StreamingCluseq.recover(state_dir)
        assert full_state(again) == full_state(recovered)

    def test_missing_checkpoint_raises(self, tmp_path):
        from repro.stream import CheckpointError

        with pytest.raises(CheckpointError, match="no checkpoint"):
            StreamingCluseq.recover(tmp_path)


class TestCrashAtEveryBoundary:
    """A crash at any durability boundary recovers bit-identically."""

    @pytest.fixture(scope="class")
    def short_stream(self):
        return drifting_markov_stream(
            80,
            40,
            alphabet_size=ALPHABET_SIZE,
            mean_length=30,
            concentration=0.05,
            seed=11,
        )

    #: Eight batches of 10 cross every cadence: checkpoints at batches
    #: 3 and 6, reseeds every 2, decay at 6 and §4.5 consolidation at 8.
    CONFIG = make_config(batch_size=10, pool_size=64, checkpoint_every=3)

    def recover_and_finish(self, state_dir, sequences):
        """Recover, or cold-start in place when no checkpoint is durable."""
        try:
            engine = StreamingCluseq.recover(state_dir)
            cold = False
        except CheckpointError:
            engine = make_engine(self.CONFIG, state_dir=state_dir)
            cold = True
        with engine:
            engine.run(sequences[engine.sequences_ingested :])
        return full_state(engine), cold

    @pytest.mark.parametrize("kind", ["fsync", "replace"])
    def test_every_boundary(self, short_stream, tmp_path, kind):
        sequences = short_stream.sequences
        reference = make_engine(self.CONFIG)
        reference.run(sequences)
        expected = full_state(reference)

        def workload():
            with make_engine(self.CONFIG, state_dir=tmp_path / "dry") as engine:
                engine.run(sequences)

        total = count_fault_points(workload, kind=kind)
        assert total > 0, f"the run performed no {kind} calls"
        cold_starts = 0
        for crash_at in range(1, total + 1):
            state_dir = tmp_path / f"crash-{kind}-{crash_at}"
            engine = None
            with FaultInjector(crash_at=crash_at, kind=kind).armed():
                with pytest.raises(CrashPoint):
                    engine = make_engine(self.CONFIG, state_dir=state_dir)
                    engine.run(sequences)
            if engine is not None:
                engine.close()
            state, cold = self.recover_and_finish(state_dir, sequences)
            cold_starts += cold
            assert state == expected, (
                f"recovery after a crash at {kind} #{crash_at}/{total} "
                "diverged from the uninterrupted run"
            )
        # Crash #1 of either kind hits the initial checkpoint, before
        # anything is durable: that state dir must cold-start.
        assert cold_starts >= 1


class TestRejectedBatch:
    """A batch with an id outside the alphabet is refused before it is
    journaled: nothing of it is applied, and the state dir resumes."""

    BAD = [0, 1, ALPHABET_SIZE]

    def warm_engine(self, stream, state_dir):
        engine = make_engine(make_config(), state_dir=state_dir)
        engine.run(stream.sequences[:100])
        assert engine.result.clusters
        return engine

    def test_live_clusters_reject_the_whole_batch(self, stream, tmp_path):
        engine = self.warm_engine(stream, tmp_path / "state")
        before = full_state(engine)
        with open(journal_path(tmp_path / "state"), "rb") as handle:
            journal = handle.read()
        with pytest.raises(ValueError, match="batch position 1: symbol id 8"):
            engine.ingest_batch([stream.sequences[100], self.BAD])
        assert full_state(engine) == before
        with open(journal_path(tmp_path / "state"), "rb") as handle:
            assert handle.read() == journal

    def test_zero_clusters_reject_instead_of_pooling(self, tmp_path):
        engine = make_engine(make_config(), state_dir=tmp_path / "state")
        with pytest.raises(ValueError, match="batch position 2: symbol id -1"):
            engine.ingest_batch([[0, 1], [], [2, -1]])
        with pytest.raises(ValueError, match="batch position 0: symbol id 8"):
            engine.ingest_batch([self.BAD])
        assert len(engine.pool) == 0
        assert engine.batches_ingested == 0
        assert engine.sequences_ingested == 0

    @pytest.mark.parametrize("warm", [True, False], ids=["clusters", "no-clusters"])
    def test_recover_after_rejected_batch(self, stream, tmp_path, warm):
        state_dir = tmp_path / "state"
        if warm:
            engine = self.warm_engine(stream, state_dir)
        else:
            engine = make_engine(make_config(), state_dir=state_dir)
        with pytest.raises(ValueError, match="out of range"):
            engine.ingest_batch([stream.sequences[100], self.BAD])
        engine.ingest_batch(stream.sequences[101:121])
        recovered = StreamingCluseq.recover(state_dir)
        assert full_state(recovered) == full_state(engine)

    def test_recover_rejects_a_journal_record_outside_the_alphabet(
        self, stream, tmp_path
    ):
        """The scoring row runs unchecked, so a journal record is
        checked as it is read back, as ``ingest_batch`` checks a batch."""
        state_dir = tmp_path / "state"
        engine = self.warm_engine(stream, state_dir)
        engine.close()
        record = {"type": "batch", "n": engine.batches_ingested,
                  "sequences": [stream.sequences[100], self.BAD]}
        with open(journal_path(state_dir), "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(JournalError, match="position 1: symbol id 8"):
            StreamingCluseq.recover(state_dir)

    def test_recover_rejects_a_pooled_sequence_outside_the_alphabet(
        self, stream, tmp_path
    ):
        state_dir = tmp_path / "state"
        engine = self.warm_engine(stream, state_dir)
        engine.checkpoint()
        engine.close()
        target = checkpoint_path(state_dir)
        with open(target, encoding="utf-8") as handle:
            state = json.load(handle)
        state["pool"].append([engine.sequences_ingested, [0, 1, -1]])
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(state, handle)
        with pytest.raises(CheckpointError, match="symbol id -1"):
            StreamingCluseq.recover(state_dir)


class TestStateDirBelongsToOneRun:
    """A new engine refuses a state dir that holds another run's state,
    before it writes anything; only ``recover`` attaches to it."""

    @pytest.mark.parametrize("second_batches", [2, 4])
    def test_fresh_engine_refuses_a_used_state_dir(
        self, stream, tmp_path, second_batches
    ):
        config = make_config(batch_size=10, checkpoint_every=3)
        state_dir = tmp_path / "state"
        with make_engine(config, state_dir=state_dir) as first:
            feed_whole_batches(first, stream.sequences[:70])
        expected = full_state(first)
        before = {path.name: path.read_bytes() for path in state_dir.iterdir()}

        second_run = stream.sequences[200 : 200 + 10 * second_batches]
        with pytest.raises(FileExistsError, match="already holds stream state"):
            with make_engine(config, state_dir=state_dir) as second:
                feed_whole_batches(second, second_run)
        assert {
            path.name: path.read_bytes() for path in state_dir.iterdir()
        } == before
        recovered = StreamingCluseq.recover(state_dir)
        recovered.close()
        assert full_state(recovered) == expected

    def test_journal_alone_is_refused(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "journal.jsonl").write_text("")
        with pytest.raises(FileExistsError, match=r"journal\.jsonl"):
            make_engine(make_config(), state_dir=state_dir)
        assert [path.name for path in state_dir.iterdir()] == ["journal.jsonl"]


class TestRetiredCheckpointKeys:
    def test_threshold_survives_replay_and_later_batches(self, stream, tmp_path):
        """A checkpoint of a build with the rolling threshold adjuster
        recovers, and its ``t`` is the one the stream keeps scoring
        with."""
        config = make_config(batch_size=10, checkpoint_every=3)
        state_dir = tmp_path / "state"
        with make_engine(config, state_dir=state_dir) as engine:
            feed_whole_batches(engine, stream.sequences[:40])
        target = checkpoint_path(state_dir)
        with open(target, encoding="utf-8") as handle:
            state = json.load(handle)
        assert state["journal_batches"] == 3
        state["config"].update(
            adjust_every=5, score_window=2048, sample_multiplier=5
        )
        state["recent_scores"] = [0.5, 1.5, 2.5]
        state["log_threshold"] = 3.0
        state["result"]["final_log_threshold"] = 3.0
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(state, handle)

        recovered = StreamingCluseq.recover(state_dir)
        assert recovered.batches_ingested == 4
        assert recovered.log_threshold == 3.0
        with recovered:
            feed_whole_batches(recovered, stream.sequences[40:70])
        assert recovered.batches_ingested == 7
        assert recovered.log_threshold == 3.0
        assert recovered.stats().log_threshold == 3.0


class TestPinnedStateDir:
    """A state dir written by an earlier build (``tests/golden/``)
    still loads, and this build replays its journal as it ingests."""

    #: The ``counters`` keys of the fixture's checkpoint, as the build
    #: that wrote it wrote them; this build still reads such a file.
    FIXTURE_COUNTER_KEYS = {
        "batches",
        "sequences",
        "absorbed",
        "outliers",
        "pool_evicted",
        "clusters_spawned",
        "clusters_dismissed",
        "decay_events",
        "decay_pruned_nodes",
        "checkpoints_written",
        "next_index",
        "next_cluster_id",
    }
    #: The ``counters`` keys this build writes: the derived ``outliers``
    #: and ``next_index`` are gone.
    COUNTER_KEYS = FIXTURE_COUNTER_KEYS - {"outliers", "next_index"}

    @pytest.fixture
    def pinned(self, tmp_path):
        """The committed state dir, copied so recovery can append."""
        import shutil

        from golden import make_stream_state

        state_dir = tmp_path / "state"
        shutil.copytree(make_stream_state.STATE_DIR, state_dir)
        return make_stream_state, state_dir

    def test_replay_from_its_checkpoint_equals_live_ingestion(
        self, pinned, tmp_path
    ):
        """Recovery replays the journal suffix after the checkpoint and
        finishes the stream; a copy without the journal loads the same
        checkpoint and ingests those batches live. Both must end equal.
        (A run from batch 0 follows this build's re-seed rule, so it
        cannot reproduce the state the writing build checkpointed.)"""
        import shutil

        fixture, state_dir = pinned
        sequences = fixture.stream()
        with open(checkpoint_path(state_dir), encoding="utf-8") as handle:
            checkpointed = json.load(handle)["journal_batches"] * fixture.BATCH_SIZE
        written = fixture.WRITTEN_BATCHES * fixture.BATCH_SIZE
        assert checkpointed < written

        live_dir = tmp_path / "live"
        shutil.copytree(state_dir, live_dir)
        os.remove(journal_path(live_dir))
        live = StreamingCluseq.recover(live_dir)
        assert live.sequences_ingested == checkpointed
        with live:
            live.run(sequences[checkpointed:])

        recovered = StreamingCluseq.recover(state_dir)
        assert recovered.sequences_ingested == written
        with recovered:
            recovered.run(sequences[written:])
        assert recovered.sequences_ingested == len(sequences)
        assert full_state(recovered) == full_state(live)

    def test_counter_keys_are_the_pinned_set(self, pinned):
        _, state_dir = pinned
        with open(state_dir / "checkpoint.json", encoding="utf-8") as handle:
            assert set(json.load(handle)["counters"]) == self.FIXTURE_COUNTER_KEYS
        engine = StreamingCluseq.recover(state_dir)
        engine.checkpoint()
        engine.close()
        with open(state_dir / "checkpoint.json", encoding="utf-8") as handle:
            assert set(json.load(handle)["counters"]) == self.COUNTER_KEYS
