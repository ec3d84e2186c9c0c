"""Unit tests for the streaming subsystem (``repro.stream``)."""

import dataclasses
import hashlib
import json

import pytest

from repro.core.persistence import result_to_dict
from repro.core.similarity import score_row
from repro.obs import MetricsRegistry, use_registry
from repro.stream import (
    STREAM_FORMAT,
    BatchRecord,
    CheckpointError,
    DecayPolicy,
    DriftingStream,
    JournalError,
    OutlierPool,
    StreamConfig,
    StreamingCluseq,
    StreamJournal,
    batched,
    checkpoint_path,
    drifting_markov_stream,
    ensure_resumable,
    journal_batches_after,
    journal_path,
    read_checkpoint,
    read_encoded_lines,
    read_journal,
    write_checkpoint,
)
from repro.sequences.alphabet import Alphabet, AlphabetError


# -- outlier pool -------------------------------------------------------------


class TestOutlierPool:
    def test_fifo_eviction(self):
        pool = OutlierPool(max_size=2)
        assert pool.add(1, [0, 1]) is None
        assert pool.add(2, [1, 0]) is None
        assert pool.add(3, [0, 0]) == 1
        assert pool.indices() == [2, 3]
        assert pool.evicted == 1

    def test_duplicate_index_rejected(self):
        pool = OutlierPool(max_size=4)
        pool.add(7, [0])
        with pytest.raises(ValueError, match="already pooled"):
            pool.add(7, [1])

    def test_remove_and_contains(self):
        pool = OutlierPool(max_size=4)
        pool.add(1, [0])
        assert 1 in pool
        pool.remove(1)
        assert 1 not in pool
        pool.remove(1)  # no-op
        assert len(pool) == 0

    def test_roundtrip_preserves_order_and_eviction_count(self):
        pool = OutlierPool(max_size=3)
        for i in range(5):
            pool.add(i, [i])
        clone = OutlierPool.from_list(
            pool.to_list(), pool.max_size, evicted=pool.evicted
        )
        assert clone.indices() == pool.indices()
        assert clone.evicted == pool.evicted
        assert [seq for _, seq in clone] == [seq for _, seq in pool]


# -- decay policy -------------------------------------------------------------


class TestDecayPolicy:
    def test_disabled_by_default(self):
        policy = DecayPolicy()
        assert not policy.enabled
        assert not policy.due(10)

    def test_due_fires_on_multiples_only(self):
        policy = DecayPolicy(factor=0.9, every_batches=4)
        assert [n for n in range(1, 13) if policy.due(n)] == [4, 8, 12]

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayPolicy(factor=0.0, every_batches=1)
        with pytest.raises(ValueError):
            DecayPolicy(factor=1.1, every_batches=1)
        with pytest.raises(ValueError):
            DecayPolicy(factor=0.5, every_batches=1, min_count=0)

    def test_dict_roundtrip(self):
        policy = DecayPolicy(factor=0.8, every_batches=5, min_count=2)
        assert DecayPolicy.from_dict(policy.to_dict()) == policy


# -- journal ------------------------------------------------------------------


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with StreamJournal(path) as journal:
            journal.append_batch(0, [[0, 1], [1, 0]])
            journal.append_batch(1, [[2, 2]])
        records = list(read_journal(path))
        assert records == [
            BatchRecord(0, [[0, 1], [1, 0]]),
            BatchRecord(1, [[2, 2]]),
        ]

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with StreamJournal(path) as journal:
            journal.append_batch(0, [[0]])
        with StreamJournal(path) as journal:
            journal.append_batch(1, [[1]])
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "header"
        assert sum(1 for ln in lines if json.loads(ln)["type"] == "header") == 1

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with StreamJournal(path) as journal:
            journal.append_batch(0, [[0, 1]])
            journal.append_batch(1, [[1, 1]])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "batch", "n": 2, "sequen')  # torn append
        records = list(read_journal(path))
        assert [r.ordinal for r in records] == [0, 1]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with StreamJournal(path) as journal:
            journal.append_batch(0, [[0]])
        text = path.read_text().splitlines()
        text.insert(1, "garbage{{{")
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            list(read_journal(path))

    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "header", "format": "other/v9"}\n')
        with pytest.raises(JournalError, match="not a"):
            list(read_journal(path))

    def test_batches_after_filters_by_ordinal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with StreamJournal(path) as journal:
            for n in range(5):
                journal.append_batch(n, [[n]])
        suffix = journal_batches_after(path, after=3)
        assert [r.ordinal for r in suffix] == [3, 4]

    def test_missing_journal_reads_as_empty(self, tmp_path):
        assert list(read_journal(tmp_path / "never-written.jsonl")) == []

    def test_append_after_torn_tail_does_not_weld(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with StreamJournal(path, fsync=False) as journal:
            journal.append_batch(0, [[1, 2]])
        # Crash mid-append: a half-written record with no newline.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "batch", "n": 1, "seq')
        with StreamJournal(path, fsync=False) as journal:
            journal.append_batch(1, [[3, 4]])
        records = list(read_journal(path))
        assert [record.ordinal for record in records] == [0, 1]
        assert records[1].sequences == [[3, 4]]

    def test_unknown_record_kind_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with StreamJournal(path, fsync=False) as journal:
            journal.append_batch(0, [[1]])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "consolidate", "n": 1}\n')
        with pytest.raises(JournalError, match="unknown record"):
            list(read_journal(path))


# -- checkpoint ---------------------------------------------------------------


class TestCheckpoint:
    def test_roundtrip_and_format_tag(self, tmp_path):
        path = checkpoint_path(tmp_path)
        size = write_checkpoint(path, {"journal_batches": 3, "x": [1, 2]})
        assert size > 0
        payload = read_checkpoint(path)
        assert payload["format"] == STREAM_FORMAT
        assert payload["journal_batches"] == 3
        assert payload["x"] == [1, 2]

    def test_missing_journal_batches_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="journal_batches"):
            write_checkpoint(checkpoint_path(tmp_path), {"x": 1})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            read_checkpoint(checkpoint_path(tmp_path))

    def test_corrupt_file_raises(self, tmp_path):
        path = checkpoint_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        with pytest.raises(CheckpointError, match="corrupt"):
            read_checkpoint(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = checkpoint_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "other/v2", "journal_batches": 0}, handle)
        with pytest.raises(CheckpointError, match="unsupported"):
            read_checkpoint(path)

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = checkpoint_path(tmp_path)
        write_checkpoint(path, {"journal_batches": 0})
        write_checkpoint(path, {"journal_batches": 1})
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["checkpoint.json"]
        assert read_checkpoint(path)["journal_batches"] == 1


class TestEnsureResumable:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            ensure_resumable(tmp_path / "nope")

    def test_not_a_directory(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(CheckpointError, match="not a directory"):
            ensure_resumable(target)

    def test_empty_directory(self, tmp_path):
        target = tmp_path / "state"
        target.mkdir()
        with pytest.raises(CheckpointError, match="nothing to resume"):
            ensure_resumable(target)

    def test_tmp_litter_does_not_count(self, tmp_path):
        target = tmp_path / "state"
        target.mkdir()
        (target / "checkpoint.json.tmp").write_text("{}")
        with pytest.raises(CheckpointError, match="nothing to resume"):
            ensure_resumable(target)

    def test_populated_directory_passes(self, tmp_path):
        target = tmp_path / "state"
        target.mkdir()
        (target / "checkpoint.json").write_text("{}")
        ensure_resumable(target)


# -- sources ------------------------------------------------------------------


class TestSources:
    def test_batched_chunks_with_ragged_tail(self):
        chunks = list(batched(([i] for i in range(7)), 3))
        assert chunks == [[[0], [1], [2]], [[3], [4], [5]], [[6]]]

    def test_batched_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(batched([], 0))

    def test_read_encoded_lines_skips_unknown_and_labels(self):
        alphabet = Alphabet("ab")
        lines = ["ab\n", "lbl\tba\n", "", "azb\n", "bb"]
        assert list(read_encoded_lines(lines, alphabet)) == [
            [0, 1],
            [1, 0],
            [1, 1],
        ]

    def test_read_encoded_lines_error_mode(self):
        alphabet = Alphabet("ab")
        with pytest.raises(AlphabetError):
            list(read_encoded_lines(["az\n"], alphabet, on_unknown="error"))

    def test_drifting_stream_is_deterministic(self):
        a = drifting_markov_stream(50, 25, alphabet_size=4, seed=9)
        b = drifting_markov_stream(50, 25, alphabet_size=4, seed=9)
        assert isinstance(a, DriftingStream)
        assert a.sequences == b.sequences
        assert len(a) == 50
        assert a.drift_at == 25
        assert all(
            0 <= s < 4 for seq in a.sequences for s in seq
        )

    def test_drifting_stream_validation(self):
        with pytest.raises(ValueError):
            drifting_markov_stream(10, 0)
        with pytest.raises(ValueError):
            drifting_markov_stream(10, 11)


# -- engine -------------------------------------------------------------------


def quick_config(**kwargs):
    kwargs.setdefault("batch_size", 10)
    kwargs.setdefault("pool_size", 64)
    kwargs.setdefault("reseed_every", 2)
    kwargs.setdefault("reseed_k", 2)
    kwargs.setdefault("reseed_min_pool", 5)
    kwargs.setdefault("consolidate_every", 8)
    kwargs.setdefault("seed", 3)
    return StreamConfig(**kwargs)


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(batch_size=0)
        with pytest.raises(ValueError):
            StreamConfig(reseed_every=-1)

    def test_dict_roundtrip(self):
        config = quick_config(decay=DecayPolicy(factor=0.9, every_batches=4))
        assert StreamConfig.from_dict(config.to_dict()) == config
        # Older checkpoints carry retired keys; they are dropped on load.
        legacy = {
            **config.to_dict(),
            "backend": "reference",
            "valley_method": "otsu",
            "adjust_every": 5,
            "score_window": 2048,
            "sample_multiplier": 5,
        }
        assert StreamConfig.from_dict(legacy) == config
        with pytest.raises(TypeError, match="nonsense"):
            StreamConfig.from_dict({**config.to_dict(), "nonsense": 1})


class TestStreamingEngine:
    def test_cold_start_requires_alphabet_info(self):
        with pytest.raises(ValueError, match="alphabet"):
            StreamingCluseq.cold_start()

    def test_cold_start_clusters_a_clean_stream(self):
        stream = drifting_markov_stream(
            200, 100, alphabet_size=8, concentration=0.05, seed=7
        )
        engine = StreamingCluseq.cold_start(
            alphabet_size=8,
            similarity_threshold=10.0,
            significance_threshold=3,
            max_depth=4,
            config=quick_config(),
        )
        stats = engine.run(stream.sequences)
        assert stats.sequences == 200
        assert stats.clusters >= 2
        assert stats.absorbed + stats.outliers == stats.sequences
        assert 0.0 <= stats.absorb_rate <= 1.0

    def test_new_cluster_spawns_after_drift(self):
        stream = drifting_markov_stream(
            300, 150, alphabet_size=8, concentration=0.05, seed=7
        )
        config = quick_config(batch_size=25)
        engine = StreamingCluseq.cold_start(
            alphabet_size=8,
            similarity_threshold=10.0,
            significance_threshold=3,
            max_depth=4,
            config=config,
        )
        engine.run(stream.sequences)
        drift_batch = stream.drift_at // config.batch_size
        spawned_late = [
            c
            for c in engine.result.clusters
            if c.created_at_iteration > drift_batch
        ]
        assert spawned_late, "no cluster created after the drift point"

    def test_assignments_cover_every_sequence(self):
        stream = drifting_markov_stream(120, 60, alphabet_size=6, seed=5)
        engine = StreamingCluseq.cold_start(
            alphabet_size=6,
            similarity_threshold=5.0,
            significance_threshold=3,
            max_depth=4,
            config=quick_config(),
        )
        engine.run(stream.sequences)
        assert sorted(engine.result.assignments) == list(range(120))
        live = {c.cluster_id for c in engine.result.clusters}
        for ids in engine.result.assignments.values():
            assert ids <= live

    def test_empty_sequences_are_dropped(self):
        engine = StreamingCluseq.cold_start(
            alphabet_size=4, config=quick_config()
        )
        assert engine.ingest_batch([[], [0, 1], []]) == [None]
        assert engine.sequences_ingested == 1

    def test_decay_runs_on_schedule(self):
        stream = drifting_markov_stream(150, 75, alphabet_size=6, seed=2)
        engine = StreamingCluseq.cold_start(
            alphabet_size=6,
            similarity_threshold=5.0,
            significance_threshold=3,
            max_depth=4,
            config=quick_config(
                batch_size=15, decay=DecayPolicy(factor=0.8, every_batches=3)
            ),
        )
        stats = engine.run(stream.sequences)
        assert stats.batches == 10
        assert stats.decay_events == 3  # batches 3, 6, 9

    def test_checkpoint_requires_state_dir(self):
        engine = StreamingCluseq.cold_start(
            alphabet_size=4, config=quick_config()
        )
        with pytest.raises(RuntimeError, match="state_dir"):
            engine.checkpoint()

    def test_durable_engine_writes_initial_checkpoint(self, tmp_path):
        state_dir = tmp_path / "state"
        engine = StreamingCluseq.cold_start(
            alphabet_size=4, config=quick_config(), state_dir=state_dir
        )
        engine.close()
        payload = read_checkpoint(checkpoint_path(state_dir))
        assert payload["journal_batches"] == 0

    def test_journal_records_every_batch(self, tmp_path):
        state_dir = tmp_path / "state"
        stream = drifting_markov_stream(40, 20, alphabet_size=4, seed=1)
        engine = StreamingCluseq.cold_start(
            alphabet_size=4,
            config=quick_config(batch_size=10),
            state_dir=state_dir,
        )
        with engine:
            engine.run(stream.sequences)
        records = list(read_journal(journal_path(state_dir)))
        assert [r.ordinal for r in records] == [0, 1, 2, 3]
        replayed = [seq for r in records for seq in r.sequences]
        assert replayed == stream.sequences


# -- live scoring --------------------------------------------------------------
#
# Every batch is scored pair by pair on the live cluster models, because
# each join absorbs a segment into a PST that the next sequence in the
# same batch is scored against. The batch kernel never runs in the
# stream, so nothing in it is ever flattened.

ALPHABET_SIZE = 8

#: sha256 prefix of the per-batch assignments of a maintained run over
#: the ``stream`` fixture, by batch size. These pin the stream's §4.2
#: decisions (join, absorb, pool, re-seed, decay, consolidate),
#: recorded with the one-seed-at-a-time re-seed rule.
ASSIGNMENT_DIGESTS = {1: "aac27499030653bb", 32: "41bbe0d7b33b5b63"}


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
        decay=DecayPolicy(factor=0.9, every_batches=6),
        seed=3,
    )


def maintained_engine(batch_size, state_dir=None):
    return StreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=maintained_config(batch_size),
        state_dir=state_dir,
    )


def run_engine(engine, sequences, batch_size):
    assigned = []
    for start in range(0, len(sequences), batch_size):
        assigned.extend(engine.ingest_batch(sequences[start : start + batch_size]))
    return assigned


def test_maintained_stream_never_calls_the_kernel(stream):
    batch_size = 32
    engine = maintained_engine(batch_size)
    registry = MetricsRegistry()
    with use_registry(registry):
        run_engine(engine, stream, batch_size)
    stats = engine.stats()
    assert stats.absorbed > 0
    assert stats.clusters_spawned > 0
    assert stats.decay_events > 0
    assert registry.counter("backend.batch_calls").value == 0
    assert registry.counter("backend.flatten_builds").value == 0


@pytest.mark.parametrize("batch_size", [1, 32])
def test_maintained_stream_assignments_are_pinned(stream, batch_size):
    engine = maintained_engine(batch_size)
    per_batch = [
        engine.ingest_batch(stream[start : start + batch_size])
        for start in range(0, len(stream), batch_size)
    ]
    digest = hashlib.sha256(json.dumps(per_batch).encode()).hexdigest()[:16]
    assert digest == ASSIGNMENT_DIGESTS[batch_size]
    # The run must exercise both outcomes and the cluster lifecycle.
    assigned = [cid for batch in per_batch for cid in batch]
    assert any(cid is not None for cid in assigned)
    assert any(cid is None for cid in assigned)
    assert len(engine.result.clusters) >= 2


#: sha256 prefix of ``result_to_dict`` after the maintained run over the
#: ``stream`` fixture in batches of 32, recorded with the
#: one-seed-at-a-time re-seed rule.
RESULT_DIGEST = "d89673706ae8028f"


def result_digest(result):
    payload = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_assignments_share_one_frozenset_per_cluster(stream, tmp_path):
    batch_size = 32
    state_dir = tmp_path / "state"
    with maintained_engine(batch_size, state_dir=state_dir) as engine:
        run_engine(engine, stream, batch_size)
        engine.checkpoint()
    shared = {}
    for ids in engine.result.assignments.values():
        assert isinstance(ids, frozenset)
        assert shared.setdefault(ids, ids) is ids
    assert len(shared) >= 2
    assert result_digest(engine.result) == RESULT_DIGEST

    recovered = StreamingCluseq.recover(state_dir)
    recovered.close()
    assert result_to_dict(recovered.result) == result_to_dict(engine.result)
    # The load interns: one object per distinct id set, as live.
    loaded = recovered.result.assignments.values()
    assert len({id(ids) for ids in loaded}) == len(set(loaded)) == len(shared)

    # A dismissal gives the dismissed cluster's members new empty sets
    # and leaves every other shared set as it was.
    dropped = engine.result.clusters[0].cluster_id
    assert engine.dismiss({dropped}) == recovered.dismiss({dropped}) == 1
    for ids in engine.result.assignments.values():
        assert dropped not in ids
        if ids:
            assert shared[ids] is ids
    assert result_to_dict(recovered.result) == result_to_dict(engine.result)


# -- the re-seed rule ---------------------------------------------------------
#
# A re-seed round draws one §4.1 seed at a time and rescues the pool
# members that clear ``t`` against the new cluster before the next
# draw, so no later seed of a round comes from a source that an earlier
# cluster of the round already models.


def two_source_stream():
    """Two regimes interleaved from the first sequence on, so a round's
    pool holds both and a round spawns more than one cluster."""
    first, second = (
        drifting_markov_stream(
            120, 120, alphabet_size=ALPHABET_SIZE, concentration=0.05, seed=seed
        ).sequences
        for seed in (13, 14)
    )
    return [seq for pair in zip(first, second) for seq in pair]


def record_reseed_rounds(monkeypatch, sequences):
    """Wrap ``StreamingCluseq._reseed``. Returns ``(rounds, margins)``:
    each round's spawned clusters as ``(batch, [(cluster_id,
    seed_index), ...])``, and for every later seed of a round its score
    minus ``log t`` against each cluster spawned earlier in the round.
    The margins are taken when the round is over; a rescue adds only to
    its own cluster, so each earlier model is then as its rescue left
    it."""
    rounds, margins = [], []
    reseed = StreamingCluseq._reseed

    def recording(engine):
        before = len(engine.result.clusters)
        outcome = reseed(engine)
        spawned = engine.result.clusters[before:]
        rounds.append(
            (
                engine.batches_ingested,
                [(cluster.cluster_id, cluster.seed_index) for cluster in spawned],
            )
        )
        log_bg = engine.result.log_background()
        for position, cluster in enumerate(spawned):
            for earlier in spawned[:position]:
                (score,), _ = score_row(
                    [earlier.pst], sequences[cluster.seed_index], log_bg
                )
                margins.append(score - engine.log_threshold)
        return outcome

    monkeypatch.setattr(StreamingCluseq, "_reseed", recording)
    return rounds, margins


@pytest.mark.parametrize("reseed_k", [2, 3])
@pytest.mark.parametrize("source", ["drift", "two_sources"])
def test_reseed_draws_one_seed_at_a_time(
    stream, monkeypatch, tmp_path, source, reseed_k
):
    sequences = stream if source == "drift" else two_source_stream()
    batch_size = 10
    config = dataclasses.replace(
        maintained_config(batch_size), reseed_k=reseed_k, journal_fsync=False
    )
    rounds, margins = record_reseed_rounds(monkeypatch, sequences)
    state_dir = tmp_path / "state"
    # Only the batch-0 checkpoint: recovery replays every batch.
    with StreamingCluseq.cold_start(
        alphabet_size=ALPHABET_SIZE,
        similarity_threshold=10.0,
        significance_threshold=3,
        max_depth=4,
        config=config,
        state_dir=state_dir,
    ) as engine:
        run_engine(engine, sequences, batch_size)
    live = list(rounds)

    spawned = [len(clusters) for _, clusters in live]
    assert sum(spawned) == engine.stats().clusters_spawned > 0
    assert max(spawned) <= reseed_k
    assert all(margin < 0 for margin in margins), margins
    if source == "two_sources":
        # The rule was exercised: some round drew a second seed.
        assert max(spawned) >= 2 and margins

    rounds.clear()
    recovered = StreamingCluseq.recover(state_dir)
    recovered.close()
    assert rounds == live
    assert result_to_dict(recovered.result) == result_to_dict(engine.result)
