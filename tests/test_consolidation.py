"""Tests for repro.core.consolidation."""

import pytest

from repro.core.cluster import Cluster, Membership
from repro.core.consolidation import consolidate
from repro.core.pst import ProbabilisticSuffixTree


def cluster_with(cluster_id, members):
    pst = ProbabilisticSuffixTree(alphabet_size=2, max_depth=2)
    pst.add_sequence([0, 1])
    cl = Cluster(cluster_id=cluster_id, pst=pst, seed_index=members[0] if members else 0)
    for index in members:
        cl.set_member(Membership(index, 1.0, 0, 1))
    return cl


class TestAscendingPass:
    def test_small_covered_cluster_removed(self):
        big = cluster_with(0, list(range(10)))
        small = cluster_with(1, [2, 3])  # fully covered by big
        retained, removed = consolidate([big, small], min_unique_members=2)
        assert [c.cluster_id for c in retained] == [0]
        assert [c.cluster_id for c in removed] == [1]

    def test_distinct_clusters_retained(self):
        a = cluster_with(0, [0, 1, 2])
        b = cluster_with(1, [3, 4, 5])
        retained, removed = consolidate([a, b], min_unique_members=2)
        assert len(retained) == 2
        assert removed == []

    def test_empty_cluster_always_removed(self):
        a = cluster_with(0, [0, 1, 2])
        empty = cluster_with(1, [])
        retained, removed = consolidate([a, empty], min_unique_members=0)
        assert [c.cluster_id for c in retained] == [0]
        assert [c.cluster_id for c in removed] == [1]

    def test_identical_clusters_keep_one(self):
        a = cluster_with(0, [0, 1, 2, 3])
        b = cluster_with(1, [0, 1, 2, 3])
        retained, removed = consolidate([a, b], min_unique_members=2)
        assert len(retained) == 1
        assert len(removed) == 1

    def test_removal_not_cascading(self):
        """Removing one small cluster must not resurrect coverage for
        another (uniqueness is checked against retained clusters)."""
        big = cluster_with(0, list(range(8)))
        small1 = cluster_with(1, [0, 1])
        small2 = cluster_with(2, [0, 1])
        retained, removed = consolidate(
            [big, small1, small2], min_unique_members=2
        )
        assert [c.cluster_id for c in retained] == [0]
        assert {c.cluster_id for c in removed} == {1, 2}

    def test_min_unique_zero_keeps_nonempty(self):
        a = cluster_with(0, [0, 1])
        b = cluster_with(1, [0, 1])
        retained, _ = consolidate([a, b], min_unique_members=0, dissolve_covered=False)
        assert len(retained) == 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            consolidate([cluster_with(0, [1])], min_unique_members=-1)


class TestDissolvePass:
    def test_mixture_cluster_dissolved(self):
        """A mega-cluster covering the union of two pure clusters loses
        to them when dissolve_covered is on."""
        pure_a = cluster_with(0, [0, 1, 2, 3])
        pure_b = cluster_with(1, [4, 5, 6, 7])
        mixture = cluster_with(2, list(range(8)))
        retained, removed = consolidate(
            [pure_a, pure_b, mixture], min_unique_members=2, dissolve_covered=True
        )
        assert {c.cluster_id for c in retained} == {0, 1}
        assert {c.cluster_id for c in removed} == {2}

    def test_mixture_survives_without_dissolve(self):
        """The paper's ascending-only pass keeps the mixture and kills
        the pure clusters instead — the failure mode DESIGN.md documents."""
        pure_a = cluster_with(0, [0, 1, 2, 3])
        pure_b = cluster_with(1, [4, 5, 6, 7])
        mixture = cluster_with(2, list(range(8)))
        retained, _ = consolidate(
            [pure_a, pure_b, mixture], min_unique_members=2, dissolve_covered=False
        )
        assert [c.cluster_id for c in retained] == [2]

    def test_last_cluster_never_dissolved(self):
        only = cluster_with(0, [0, 1])
        retained, removed = consolidate([only], min_unique_members=5)
        # Removed by the ascending pass? No other cluster covers it, so
        # uniqueness is its full size; 2 < 5 means it IS removed there.
        # With a single cluster and min_unique below its size it stays.
        retained2, removed2 = consolidate([only], min_unique_members=2)
        assert [c.cluster_id for c in retained2] == [0]

    def test_partial_overlap_survives(self):
        a = cluster_with(0, [0, 1, 2, 3, 4])
        b = cluster_with(1, [3, 4, 5, 6, 7])
        retained, removed = consolidate([a, b], min_unique_members=3)
        assert len(retained) == 2


class TestLookupBound:
    @pytest.mark.parametrize("dissolve", [True, False])
    def test_disjoint_clusters_cost_at_most_k_squared_needed_lookups(self, dissolve):
        """A pass over k disjoint clusters stops at each cluster's
        needed-th unique member: its membership lookups do not grow with
        the clusters' sizes."""
        k, size, needed = 5, 10_000, 4
        lookups = [0]

        class CountingMembers(dict):
            def __contains__(self, key):
                lookups[0] += 1
                return dict.__contains__(self, key)

        clusters = []
        for cid in range(k):
            cluster = cluster_with(cid, list(range(cid * size, (cid + 1) * size)))
            cluster._members = CountingMembers(cluster._members)
            clusters.append(cluster)
        retained, removed = consolidate(clusters, needed, dissolve)
        assert removed == []
        assert len(retained) == k
        assert 0 < lookups[0] <= k * k * needed
