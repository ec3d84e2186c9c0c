"""Tests for repro.core.cluster — cluster objects and memberships."""

from repro.core.cluster import Cluster, Membership
from repro.core.pst import ProbabilisticSuffixTree


def make_cluster(cluster_id=0, seed_index=0):
    pst = ProbabilisticSuffixTree(alphabet_size=2, max_depth=3)
    pst.add_sequence([0, 1, 0, 1])
    return Cluster(cluster_id=cluster_id, pst=pst, seed_index=seed_index)


class TestMembership:
    def test_set_member_new_vs_refresh(self):
        cluster = make_cluster()
        first = cluster.set_member(Membership(5, 10.0, 0, 4))
        again = cluster.set_member(Membership(5, 12.0, 1, 4))
        assert first is True
        assert again is False
        assert cluster.size == 1
        assert cluster.membership_of(5).log_similarity == 12.0

    def test_drop_member(self):
        cluster = make_cluster()
        cluster.set_member(Membership(3, 1.0, 0, 1))
        assert cluster.drop_member(3) is True
        assert cluster.drop_member(3) is False
        assert cluster.size == 0

    def test_contains(self):
        cluster = make_cluster()
        cluster.set_member(Membership(1, 1.0, 0, 1))
        assert cluster.contains(1)
        assert not cluster.contains(2)

    def test_members_returns_copy(self):
        cluster = make_cluster()
        cluster.set_member(Membership(1, 1.0, 0, 1))
        members = cluster.members
        members.add(99)
        assert not cluster.contains(99)


class TestModelUpdates:
    def test_absorb_segment_updates_pst(self):
        cluster = make_cluster()
        nodes_before = cluster.pst.node_count
        symbols_before = cluster.pst.total_symbols
        cluster.absorb_segment([1, 1, 1, 0])
        assert cluster.pst.total_symbols == symbols_before + 4
        assert cluster.pst.node_count >= nodes_before
        assert cluster.segments_absorbed == 1


class TestUniqueMembers:
    def test_unique_against_others(self):
        a, b = make_cluster(0), make_cluster(1)
        for i in (1, 2, 3):
            a.set_member(Membership(i, 1.0, 0, 1))
        for i in (2, 3, 4):
            b.set_member(Membership(i, 1.0, 0, 1))
        assert a.unique_members([b]) == {1}
        assert b.unique_members([a]) == {4}

    def test_unique_excludes_self(self):
        a = make_cluster(0)
        a.set_member(Membership(1, 1.0, 0, 1))
        assert a.unique_members([a]) == {1}

    def test_unique_empty_when_fully_covered(self):
        a, b = make_cluster(0), make_cluster(1)
        a.set_member(Membership(1, 1.0, 0, 1))
        b.set_member(Membership(1, 1.0, 0, 1))
        b.set_member(Membership(2, 1.0, 0, 1))
        assert a.unique_members([b]) == set()


class TestStats:
    def test_repr(self):
        assert "Cluster(id=0" in repr(make_cluster())
