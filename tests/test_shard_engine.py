"""Unit tests for the sharding building blocks.

Hash routing (FNV-1a goldens), the context-tree dissimilarity,
deterministic merge planning, PST count-merging, the coordinator's
config and one hand-built consolidation round. The whole-system
properties (differential equivalence, pinned end states) live in
``test_shard_differential.py``.
"""

import json

import numpy as np
import pytest

import repro.shard.engine as shard_engine
from repro.core.cluster import Cluster
from repro.core.persistence import result_to_dict
from repro.core.pst import ProbabilisticSuffixTree
from repro.shard import (
    ClusterExport,
    MergeOp,
    ShardConfig,
    ShardedStreamingCluseq,
    context_tree_distance,
    fnv1a,
    plan_merges,
    route,
)
from repro.stream import StreamConfig, StreamingCluseq

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
        # Locked-down digests: routes derive from these, so the hash
        # must never drift across versions.
        assert fnv1a([]) == 14695981039346656037
        assert fnv1a([0]) == 12638153115695167455
        assert fnv1a([1, 2, 3]) == 15035938162879559083
        assert fnv1a([255]) == 12638352127299873646
        assert fnv1a([256]) == 590682968308805178

    # Pinned from the octet-by-octet hash: one-octet ids take the
    # one-multiply path, larger ids the octet loop, a mix the loop too.
    ONE_OCTET = [
        130, 183, 14, 238, 127, 26, 80, 57, 190, 240, 126, 194, 52, 127, 6,
        110, 208, 143, 93, 199, 81, 36, 71, 227, 64, 67, 0, 2, 107, 110, 84,
        85, 148, 160, 101, 104, 93, 100, 196, 152, 11, 184, 212, 84, 74, 135,
        33, 169, 154, 1, 173, 33, 158, 181, 156, 246, 161, 94, 246, 241,
    ]

    @pytest.mark.parametrize(
        "symbols, expected",
        [
            (ONE_OCTET, 9602806488275514992),
            (list(range(256)), 4774620800949106213),
            ([256, 1000, 65535, 70000, 2**20 + 3, 2**40 + 17], 10741500222966925732),
            ([3, 300, 0, 255, 256, 70000, 12, 1, 511], 13293726313309662580),
        ],
        ids=["below-256", "every-octet", "256-and-above", "mixed"],
    )
    def test_pinned_values(self, symbols, expected):
        assert fnv1a(symbols) == expected
        assert fnv1a(tuple(symbols)) == expected
        assert fnv1a(np.array(symbols, dtype=np.int64)) == expected

    @pytest.mark.parametrize(
        "mixed",
        [
            [3, np.int64(7), np.uint8(200), True, 255],
            [3, np.uint64(7), 300, np.int32(200), 1, 255],
            [3.0, 7, 200, 1, 255],
        ],
        ids=["one-octet", "with-a-large-id", "with-a-float"],
    )
    def test_integer_types_hash_as_python_ints(self, mixed):
        assert fnv1a(mixed) == fnv1a([int(symbol) for symbol in mixed])

    def test_multi_octet_symbols_do_not_collide_trivially(self):
        assert fnv1a([256]) != fnv1a([0]) != fnv1a([1, 0])

    def test_negative_id_raises(self):
        # -1 >> 8 is -1: without the check the octet loop never ends.
        with pytest.raises(ValueError, match="symbol id -1"):
            fnv1a([0, -1])

    def test_first_negative_id_is_named_beside_large_ids(self):
        with pytest.raises(ValueError, match="symbol id -2 "):
            fnv1a([7, 300, -2, -5])


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


def walkable_labels(pst):
    return [label for label, _ in pst.walkable_nodes()]


class TestContextTreeDistance:
    def test_identity_is_zero(self):
        pst = build_pst(REGIME_A)
        assert context_tree_distance(pst, pst) == 0.0

    def test_symmetric_and_bounded(self):
        pst_a = build_pst(REGIME_A)
        pst_b = build_pst(REGIME_B)
        d_ab = context_tree_distance(pst_a, pst_b)
        d_ba = context_tree_distance(pst_b, pst_a)
        assert d_ab == pytest.approx(d_ba)
        assert 0.0 <= d_ab <= 2.0

    def test_separates_regimes(self):
        # Two models of the same regime (disjoint halves) must sit far
        # closer than models of different regimes.
        half_a1 = build_pst(REGIME_A[:6])
        half_a2 = build_pst(REGIME_A[6:])
        pst_b = build_pst(REGIME_B)
        within = context_tree_distance(half_a1, half_a2)
        across = context_tree_distance(half_a1, pst_b)
        assert within < across

    def test_pinned_values(self):
        # Exact values, as computed when the distance read the batch
        # kernel's flat exports: every row is exp(math.log p).
        pst_a = build_pst(REGIME_A)
        pst_b = build_pst(REGIME_B)
        mixed = build_pst(REGIME_A[:6] + REGIME_B[:3])
        deep = build_pst(REGIME_A + REGIME_B[:2], c=2)
        assert context_tree_distance(pst_a, pst_b) == 2.0
        assert context_tree_distance(pst_b, pst_a) == 2.0
        assert context_tree_distance(
            build_pst(REGIME_A[:6]), build_pst(REGIME_A[6:])
        ) == 0.0
        assert context_tree_distance(mixed, pst_a) == 0.980392156862745
        assert context_tree_distance(pst_a, mixed) == 0.980392156862745
        assert context_tree_distance(mixed, pst_b) == 1.038969819902883
        assert context_tree_distance(deep, pst_a) == 0.9579831932773109
        assert context_tree_distance(deep, mixed) == 0.04177094035106205

    def test_rejects_alphabet_mismatch(self):
        pst_a = build_pst(REGIME_A)
        pst_other = build_pst(regime_sequences([0, 1]), alphabet_size=2)
        with pytest.raises(ValueError, match="alphabet"):
            context_tree_distance(pst_a, pst_other)

    def test_walkable_labels_enumerate_every_node(self):
        pst = build_pst(REGIME_A, c=2)
        labels = walkable_labels(pst)
        # Walkable: every suffix of the label is significant.
        expected = {
            label
            for label, _ in pst.iter_nodes()
            if all(pst.is_significant(label[k:]) for k in range(len(label)))
        }
        assert len(labels) == len(expected)
        assert labels[0] == ()  # root
        assert len(set(labels)) == len(labels)
        assert set(labels) == expected
        assert [len(label) for label in labels] == sorted(map(len, labels))


class TestPlanMerges:
    def exports_for(self, spec):
        """spec: list of (shard, cluster_id, weight, pst) tuples."""
        by_shard = {}
        for shard, cid, weight, pst in spec:
            by_shard.setdefault(shard, []).append(
                ClusterExport(shard=shard, cluster_id=cid, weight=weight,
                              pst=pst)
            )
        shards = max(by_shard) + 1
        return [by_shard.get(i, []) for i in range(shards)]

    def test_identical_models_merge_into_the_heavier(self):
        pst = build_pst(REGIME_A)
        ops, pairs = plan_merges(
            self.exports_for([(0, 0, 50, pst), (1, 3, 90, pst)]),
            threshold=0.25,
        )
        assert pairs == 1
        assert len(ops) == 1
        op = ops[0]
        assert (op.keep_shard, op.keep_cluster) == (1, 3)
        assert (op.drop_shard, op.drop_cluster) == (0, 0)
        assert op.distance == 0.0

    def test_weight_tie_keeps_lower_shard(self):
        pst = build_pst(REGIME_A)
        ops, _ = plan_merges(
            self.exports_for([(0, 2, 50, pst), (1, 1, 50, pst)]),
            threshold=0.25,
        )
        assert len(ops) == 1
        assert (ops[0].keep_shard, ops[0].keep_cluster) == (0, 2)

    def test_distant_models_stay_apart_but_are_scored(self):
        pst_a = build_pst(REGIME_A)
        pst_b = build_pst(REGIME_B)
        ops, pairs = plan_merges(
            self.exports_for([(0, 0, 10, pst_a), (1, 0, 10, pst_b)]),
            threshold=0.05,
        )
        assert ops == []
        assert pairs == 1

    def test_same_shard_pairs_are_never_scored(self):
        pst = build_pst(REGIME_A)
        ops, pairs = plan_merges(
            self.exports_for([(0, 0, 10, pst), (0, 1, 10, pst)]),
            threshold=2.0,
        )
        assert ops == []
        assert pairs == 0

    def test_near_empty_models_are_excluded(self):
        empty = build_pst([])
        assert walkable_labels(empty) == [()]
        real = build_pst(REGIME_A)
        ops, pairs = plan_merges(
            self.exports_for([(0, 0, 0, empty), (1, 0, 10, real)]),
            threshold=2.0,
        )
        assert ops == []
        assert pairs == 0

    def test_each_cluster_dropped_at_most_once(self):
        pst = build_pst(REGIME_A)
        # B0 keeps A0 (heavier); the (A0, B1) pair must then be skipped
        # because A0 was already consumed as a merge source.
        ops, pairs = plan_merges(
            self.exports_for(
                [(0, 0, 10, pst), (1, 0, 50, pst), (1, 1, 40, pst)]
            ),
            threshold=0.25,
        )
        assert pairs == 2
        assert len(ops) == 1
        assert (ops[0].keep_shard, ops[0].keep_cluster) == (1, 0)

    def test_plan_is_deterministic_under_export_order(self):
        pst_1 = build_pst(REGIME_A[:6])
        pst_2 = build_pst(REGIME_A[6:])
        spec = [(0, 0, 30, pst_1), (1, 0, 20, pst_2)]
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
        stale_labels = walkable_labels(merged)
        stale_version = merged.version
        created = merged.merge_counts(build_pst(REGIME_B))
        assert created > 0
        assert len(walkable_labels(merged)) == len(stale_labels) + created
        assert merged.version > stale_version

    def test_merge_respects_own_depth_cap(self):
        shallow = build_pst(REGIME_A, max_depth=2)
        deep = build_pst(REGIME_B, max_depth=3)
        shallow.merge_counts(deep)
        assert max(
            len(label) for label in walkable_labels(shallow)
        ) <= 2

    def test_merge_rejects_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            build_pst(REGIME_A).merge_counts(
                build_pst(regime_sequences([0, 1]), alphabet_size=2)
            )


class TestShardConfig:
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


class TestShardEngine:
    """A consolidation round folds dropped trees into their keepers in
    place, then dismisses the dropped clusters on their shards."""

    def test_chained_round_merges_pre_round_tree_and_dismisses(
        self, monkeypatch
    ):
        # Z (shard 0) -> X (shard 1), then X -> Y (shard 2): X is
        # dropped later in the round, so Y gets X's pre-round counts.
        sharded = ShardedStreamingCluseq.cold_start(
            ALPHABET,
            config=ShardConfig(shards=3, consolidate_every=0),
        )
        parts = [REGIME_A[:4], REGIME_A[4:8], REGIME_B]
        for handle, part in zip(sharded.handles, parts):
            handle.engine.result.clusters = [
                Cluster(7, build_pst(part), seed_index=0)
            ]
            handle.engine.result.assignments = {0: {7}}
        expected = build_pst(REGIME_B)
        expected.merge_counts(build_pst(REGIME_A[4:8]))
        ops = [
            MergeOp(keep_shard=1, keep_cluster=7, drop_shard=0,
                    drop_cluster=7, distance=0.1),
            MergeOp(keep_shard=2, keep_cluster=7, drop_shard=1,
                    drop_cluster=7, distance=0.2),
        ]
        monkeypatch.setattr(
            shard_engine, "plan_merges", lambda exports, threshold: (ops, 3)
        )
        sharded._consolidate(1)
        z, x, y = (handle.engine for handle in sharded.handles)
        assert z.result.clusters == [] and x.result.clusters == []
        assert [engine.result.assignments for engine in (z, x, y)] == [
            {0: set()}, {0: set()}, {0: {7}},
        ]
        (keeper,) = y.result.clusters
        assert keeper.pst.to_dict() == expected.to_dict()
        assert [engine.stats().clusters_dismissed for engine in (z, x, y)] == [
            1, 1, 0,
        ]
        assert sharded.stats().cross_merges == 2


class TestCoordinatorChecksFirst:
    """The coordinator checks a whole batch before routing any of it,
    so a bad symbol id in one shard's share leaves every shard as it
    was."""

    BAD = [0, 1, 7]

    @staticmethod
    def make_sharded():
        return ShardedStreamingCluseq.cold_start(
            ALPHABET,
            significance_threshold=1,
            similarity_threshold=10.0,
            max_depth=3,
            config=ShardConfig(
                shards=2,
                consolidate_every=0,
                stream=StreamConfig(batch_size=8, seed=3),
            ),
        )

    @staticmethod
    def digest(sharded):
        return json.dumps(
            [
                result_to_dict(handle.engine.result)
                for handle in sharded.handles
            ]
            + [sharded.stats().to_dict()],
            sort_keys=True,
        )

    def test_bad_symbol_in_another_shards_share_applies_nothing(self):
        sharded = self.make_sharded()
        first_shard = [
            seq
            for seq in regime_sequences([0, 1, 2, 3], count=24, length=9)
            if route(seq, 2) == 0
        ][:4]
        assert len(first_shard) == 4 and route(self.BAD, 2) == 1
        expected = self.digest(sharded)
        with pytest.raises(ValueError, match="batch position 4: symbol id 7"):
            sharded.ingest_batch(first_shard + [self.BAD])
        assert self.digest(sharded) == expected
        assert sharded.batches_ingested == 0
        assert all(handle.batches == 0 for handle in sharded.handles)

    def test_position_counts_dropped_empty_sequences(self):
        sharded = self.make_sharded()
        with pytest.raises(ValueError, match="batch position 2: symbol id -1"):
            sharded.ingest_batch([[0, 1], [], [2, -1]])

