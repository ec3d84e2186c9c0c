"""Unit tests for the sharding building blocks.

Hash routing (FNV-1a goldens), the context-tree dissimilarity,
deterministic merge planning, PST count-merging, the coordinator's
config/manifest/journal formats and the per-shard plan journaling
that backs crash recovery. The whole-system properties
(chaos sweep, differential equivalence) live in
``test_shard_recovery.py`` / ``test_shard_differential.py``.
"""

import json
import os

import pytest

from repro.core.pst import ProbabilisticSuffixTree
from repro.shard import (
    ClusterExport,
    ShardConfig,
    context_tree_distance,
    dispatch_path,
    flat_labels,
    fnv1a,
    manifest_path,
    plan_merges,
    read_manifest,
    route,
)
from repro.shard.engine import ShardEngine, build_shard_engine
from repro.stream import (
    BatchRecord,
    CheckpointError,
    PlanRecord,
    StreamConfig,
    StreamJournal,
    ensure_resumable,
    read_journal,
)

ALPHABET = 4


def build_pst(sequences, alphabet_size=ALPHABET, max_depth=3, c=1):
    return ProbabilisticSuffixTree.from_sequences(
        sequences,
        alphabet_size=alphabet_size,
        max_depth=max_depth,
        significance_threshold=c,
    )


def regime_sequences(symbols, count=12, length=16):
    # Deterministic pseudo-random sequences over a symbol subset.
    return [
        [symbols[(i * 7 + j * 3 + i * j) % len(symbols)] for j in range(length)]
        for i in range(count)
    ]


REGIME_A = regime_sequences([0, 1])
REGIME_B = regime_sequences([2, 3])


class TestFnv1a:
    def test_golden_values(self):
        # Locked-down digests: the dispatch WAL records routes derived
        # from these, so the hash must never drift across versions.
        assert fnv1a([]) == 14695981039346656037
        assert fnv1a([0]) == 12638153115695167455
        assert fnv1a([1, 2, 3]) == 15035938162879559083
        assert fnv1a([255]) == 12638352127299873646
        assert fnv1a([256]) == 590682968308805178

    def test_multi_octet_symbols_do_not_collide_trivially(self):
        assert fnv1a([256]) != fnv1a([0]) != fnv1a([1, 0])


class TestHashRouter:
    def test_single_shard_short_circuits(self):
        assert route([5, 6, 7], 1) == 0

    def test_routes_are_stable_and_in_range(self):
        for seq in REGIME_A + REGIME_B:
            shard = route(seq, 4)
            assert 0 <= shard < 4
            assert route(seq, 4) == shard

    def test_spreads_across_shards(self):
        routes = {route([i, i + 1, i * 3 % 7], 2) for i in range(32)}
        assert routes == {0, 1}


class TestContextTreeDistance:
    def test_identity_is_zero(self):
        flat = build_pst(REGIME_A).flattened()
        assert context_tree_distance(flat, flat) == 0.0

    def test_symmetric_and_bounded(self):
        flat_a = build_pst(REGIME_A).flattened()
        flat_b = build_pst(REGIME_B).flattened()
        d_ab = context_tree_distance(flat_a, flat_b)
        d_ba = context_tree_distance(flat_b, flat_a)
        assert d_ab == pytest.approx(d_ba)
        assert 0.0 <= d_ab <= 2.0

    def test_separates_regimes(self):
        # Two models of the same regime (disjoint halves) must sit far
        # closer than models of different regimes.
        half_a1 = build_pst(REGIME_A[:6]).flattened()
        half_a2 = build_pst(REGIME_A[6:]).flattened()
        flat_b = build_pst(REGIME_B).flattened()
        within = context_tree_distance(half_a1, half_a2)
        across = context_tree_distance(half_a1, flat_b)
        assert within < across

    def test_rejects_alphabet_mismatch(self):
        flat_a = build_pst(REGIME_A).flattened()
        flat_other = build_pst(
            regime_sequences([0, 1]), alphabet_size=2
        ).flattened()
        with pytest.raises(ValueError, match="alphabet"):
            context_tree_distance(flat_a, flat_other)

    def test_flat_labels_enumerate_every_node(self):
        flat = build_pst(REGIME_A).flattened()
        labels = flat_labels(flat)
        assert len(labels) == flat.node_count
        assert labels[0] == ()  # root
        assert len(set(labels)) == flat.node_count


class TestPlanMerges:
    def exports_for(self, spec):
        """spec: list of (shard, cluster_id, weight, flat) tuples."""
        by_shard = {}
        for shard, cid, weight, flat in spec:
            by_shard.setdefault(shard, []).append(
                ClusterExport(shard=shard, cluster_id=cid, weight=weight,
                              flat=flat)
            )
        shards = max(by_shard) + 1
        return [by_shard.get(i, []) for i in range(shards)]

    def test_identical_models_merge_into_the_heavier(self):
        flat = build_pst(REGIME_A).flattened()
        ops, pairs = plan_merges(
            self.exports_for([(0, 0, 50, flat), (1, 3, 90, flat)]),
            threshold=0.25,
        )
        assert pairs == 1
        assert len(ops) == 1
        op = ops[0]
        assert (op.keep_shard, op.keep_cluster) == (1, 3)
        assert (op.drop_shard, op.drop_cluster) == (0, 0)
        assert op.distance == 0.0

    def test_weight_tie_keeps_lower_shard(self):
        flat = build_pst(REGIME_A).flattened()
        ops, _ = plan_merges(
            self.exports_for([(0, 2, 50, flat), (1, 1, 50, flat)]),
            threshold=0.25,
        )
        assert len(ops) == 1
        assert (ops[0].keep_shard, ops[0].keep_cluster) == (0, 2)

    def test_distant_models_stay_apart_but_are_scored(self):
        flat_a = build_pst(REGIME_A).flattened()
        flat_b = build_pst(REGIME_B).flattened()
        ops, pairs = plan_merges(
            self.exports_for([(0, 0, 10, flat_a), (1, 0, 10, flat_b)]),
            threshold=0.05,
        )
        assert ops == []
        assert pairs == 1

    def test_same_shard_pairs_are_never_scored(self):
        flat = build_pst(REGIME_A).flattened()
        ops, pairs = plan_merges(
            self.exports_for([(0, 0, 10, flat), (0, 1, 10, flat)]),
            threshold=2.0,
        )
        assert ops == []
        assert pairs == 0

    def test_near_empty_models_are_excluded(self):
        empty_flat = build_pst([]).flattened()
        assert empty_flat.node_count == 1
        real = build_pst(REGIME_A).flattened()
        ops, pairs = plan_merges(
            self.exports_for([(0, 0, 0, empty_flat), (1, 0, 10, real)]),
            threshold=2.0,
        )
        assert ops == []
        assert pairs == 0

    def test_each_cluster_dropped_at_most_once(self):
        flat = build_pst(REGIME_A).flattened()
        # B0 keeps A0 (heavier); the (A0, B1) pair must then be skipped
        # because A0 was already consumed as a merge source.
        ops, pairs = plan_merges(
            self.exports_for(
                [(0, 0, 10, flat), (1, 0, 50, flat), (1, 1, 40, flat)]
            ),
            threshold=0.25,
        )
        assert pairs == 2
        assert len(ops) == 1
        assert (ops[0].keep_shard, ops[0].keep_cluster) == (1, 0)

    def test_plan_is_deterministic_under_export_order(self):
        flat_1 = build_pst(REGIME_A[:6]).flattened()
        flat_2 = build_pst(REGIME_A[6:]).flattened()
        spec = [(0, 0, 30, flat_1), (1, 0, 20, flat_2)]
        first, _ = plan_merges(self.exports_for(spec), threshold=2.0)
        second, _ = plan_merges(self.exports_for(spec), threshold=2.0)
        assert first == second


class TestMergeCounts:
    def test_merge_equals_union_built_tree(self):
        merged = build_pst(REGIME_A[:6])
        other = build_pst(REGIME_A[6:])
        union = build_pst(REGIME_A)
        merged.merge_counts(other)
        assert merged.to_dict() == union.to_dict()

    def test_merge_reports_created_nodes_and_invalidates(self):
        merged = build_pst(REGIME_A)
        stale_flat = merged.flattened()
        created = merged.merge_counts(build_pst(REGIME_B))
        assert created > 0
        fresh_flat = merged.flattened()
        assert fresh_flat.node_count == stale_flat.node_count + created
        assert fresh_flat.version > stale_flat.version

    def test_merge_respects_own_depth_cap(self):
        shallow = build_pst(REGIME_A, max_depth=2)
        deep = build_pst(REGIME_B, max_depth=3)
        shallow.merge_counts(deep)
        assert max(
            len(label) for label in flat_labels(shallow.flattened())
        ) <= 2

    def test_merge_rejects_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            build_pst(REGIME_A).merge_counts(
                build_pst(regime_sequences([0, 1]), alphabet_size=2)
            )


class TestShardConfig:
    def test_round_trips_through_dict(self):
        config = ShardConfig(
            shards=3,
            router="hash",
            consolidate_every=7,
            merge_threshold=0.5,
            stream=StreamConfig(batch_size=5, seed=9),
        )
        assert ShardConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        ) == config

    def test_retired_process_runner_loads_inprocess(self):
        # Manifests written while the one-process-per-shard runner
        # existed still load; the state they describe is runner-free.
        data = ShardConfig().to_dict()
        data["runner"] = "process"
        assert ShardConfig.from_dict(data).runner == "inprocess"
        data["runner"] = "thread"
        with pytest.raises(ValueError, match="runner"):
            ShardConfig.from_dict(data)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"router": "nope"},
            {"router": "pst"},
            {"runner": "thread"},
            {"consolidate_every": -1},
            {"merge_threshold": 2.5},
            {"runner": "process"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)


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


class TestManifest:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no shard manifest"):
            read_manifest(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        with open(manifest_path(tmp_path), "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        with pytest.raises(CheckpointError, match="corrupt"):
            read_manifest(tmp_path)

    def test_foreign_format(self, tmp_path):
        with open(manifest_path(tmp_path), "w", encoding="utf-8") as handle:
            json.dump({"format": "something/else"}, handle)
        with pytest.raises(CheckpointError, match="manifest"):
            read_manifest(tmp_path)


class TestJournalRecords:
    def test_batch_routes_round_trip(self, tmp_path):
        path = dispatch_path(tmp_path)
        with StreamJournal(path, fsync=False) as journal:
            journal.append_batch(0, [[1, 2], [3]], routes=[1, 0])
            journal.append_batch(1, [[2, 2]])
        records = list(read_journal(path))
        assert records == [
            BatchRecord(ordinal=0, sequences=[[1, 2], [3]], routes=[1, 0]),
            BatchRecord(ordinal=1, sequences=[[2, 2]], routes=None),
        ]

    def test_plan_records_round_trip(self, tmp_path):
        path = dispatch_path(tmp_path)
        plan = {"0": {"merge": [], "dismiss": [4]}}
        with StreamJournal(path, fsync=False) as journal:
            journal.append_batch(0, [[1]], routes=[0])
            journal.append_plan(1, 1, plan)
        records = list(read_journal(path))
        assert isinstance(records[1], PlanRecord)
        assert records[1] == PlanRecord(ordinal=1, round=1, plan=plan)

    def test_missing_journal_reads_as_empty(self, tmp_path):
        assert list(read_journal(tmp_path / "never-written.jsonl")) == []

    def test_append_after_torn_tail_does_not_weld(self, tmp_path):
        path = dispatch_path(tmp_path)
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


class TestShardEngine:
    def make_engine(self, state_dir=None):
        spec = {
            "alphabet": None,
            "alphabet_size": ALPHABET,
            "significance_threshold": 1,
            "similarity_threshold": 10.0,
            "max_depth": 3,
            "p_min": None,
            "max_nodes": None,
            "prune_strategy": "paper",
        }
        return build_shard_engine(
            spec,
            StreamConfig(
                batch_size=6,
                reseed_every=1,
                reseed_k=2,
                reseed_min_pool=4,
                checkpoint_every=100,
                seed=3,
            ),
            state_dir,
            resume=False,
        )

    def test_apply_plan_merges_and_dismisses(self):
        engine = self.make_engine()
        engine.ingest_batch(REGIME_A[:6])
        engine.ingest_batch(REGIME_B[:6])
        ids = [cluster.cluster_id for cluster in engine.result.clusters]
        assert len(ids) >= 2
        keep, drop = ids[0], ids[1]
        foreign = build_pst(REGIME_A[6:])
        before_nodes = {
            cluster.cluster_id: cluster.pst.node_count
            for cluster in engine.result.clusters
        }
        merged, dropped = engine.apply_plan(
            1,
            {
                "merge": [{"into": keep, "pst": foreign.to_dict()}],
                "dismiss": [drop],
            },
        )
        assert (merged, dropped) == (1, 1)
        assert engine.last_round == 1
        remaining = {c.cluster_id for c in engine.result.clusters}
        assert drop not in remaining
        kept = next(
            c for c in engine.result.clusters if c.cluster_id == keep
        )
        assert kept.pst.node_count >= before_nodes[keep]
        assert all(
            drop not in ids for ids in engine.result.assignments.values()
        )

    def test_apply_plan_rejects_unknown_target(self):
        engine = self.make_engine()
        engine.ingest_batch(REGIME_A[:6])
        with pytest.raises(ValueError, match="merge target"):
            engine.apply_plan(
                1,
                {"merge": [{"into": 999, "pst": build_pst([]).to_dict()}]},
            )

    @pytest.mark.parametrize(
        ("second", "error"),
        [
            ("missing-target", "merge target"),
            ("alphabet-mismatch", "alphabet"),
        ],
    )
    def test_bad_plan_leaves_shard_and_journal_untouched(
        self, tmp_path, second, error
    ):
        from repro.shard.engine import shard_state_digest

        state_dir = tmp_path / "shard"
        engine = self.make_engine(state_dir)
        engine.ingest_batch(REGIME_A[:6])
        keep = engine.result.clusters[0].cluster_id
        expected = shard_state_digest(engine)
        foreign = build_pst(REGIME_A[6:]).to_dict()
        bad = (
            {"into": 999, "pst": foreign}
            if second == "missing-target"
            else {
                "into": keep,
                "pst": build_pst(REGIME_A, alphabet_size=6).to_dict(),
            }
        )
        with pytest.raises(ValueError, match=error):
            engine.apply_plan(
                1, {"merge": [{"into": keep, "pst": foreign}, bad]}
            )
        assert shard_state_digest(engine) == expected
        engine.close()
        records = list(read_journal(os.path.join(state_dir, "journal.jsonl")))
        assert not any(isinstance(r, PlanRecord) for r in records)

        recovered = ShardEngine.recover(state_dir)
        assert shard_state_digest(recovered) == expected
        recovered.close()

    def test_recovery_replays_plans_interleaved(self, tmp_path):
        from repro.shard.engine import shard_state_digest

        state_dir = tmp_path / "shard"
        engine = self.make_engine(state_dir)
        engine.ingest_batch(REGIME_A[:6])
        keep = engine.result.clusters[0].cluster_id
        engine.apply_plan(
            1, {"merge": [{"into": keep, "pst": build_pst(REGIME_A[6:]).to_dict()}]}
        )
        engine.ingest_batch(REGIME_B[:6])
        expected = shard_state_digest(engine)
        engine.close()

        recovered = ShardEngine.recover(state_dir)
        assert shard_state_digest(recovered) == expected
        assert recovered.last_round == 1
        recovered.close()

    def test_checkpoint_carries_last_round(self, tmp_path):
        from repro.shard.engine import shard_state_digest

        state_dir = tmp_path / "shard"
        engine = self.make_engine(state_dir)
        engine.ingest_batch(REGIME_A[:6])
        engine.apply_plan(2, {"dismiss": []})
        engine.checkpoint()
        expected = shard_state_digest(engine)
        engine.close()
        # Wipe the journal suffix: the checkpoint alone must restore
        # last_round via the `extra` hook.
        os.remove(os.path.join(state_dir, "journal.jsonl"))
        recovered = ShardEngine.recover(state_dir)
        assert recovered.last_round == 2
        assert shard_state_digest(recovered) == expected
        recovered.close()
