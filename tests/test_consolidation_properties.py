"""Property-based tests for cluster consolidation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster, Membership
from repro.core.consolidation import consolidate
from repro.core.pst import ProbabilisticSuffixTree

# A cluster layout: list of member-index sets.
layouts = st.lists(
    st.sets(st.integers(0, 15), max_size=10),
    min_size=1,
    max_size=6,
)


def build(layout):
    clusters = []
    for cid, members in enumerate(layout):
        pst = ProbabilisticSuffixTree(alphabet_size=2, max_depth=2)
        pst.add_sequence([0, 1])
        cluster = Cluster(cluster_id=cid, pst=pst, seed_index=0)
        for index in members:
            cluster.set_member(Membership(index, 1.0, 0, 1))
        clusters.append(cluster)
    return clusters


@settings(max_examples=80, deadline=None)
@given(layouts, st.integers(0, 5), st.booleans())
def test_partition_of_input(layout, min_unique, dissolve):
    """Retained + removed is exactly the input, with no duplicates."""
    clusters = build(layout)
    retained, removed = consolidate(clusters, min_unique, dissolve)
    all_ids = {c.cluster_id for c in clusters}
    retained_ids = {c.cluster_id for c in retained}
    removed_ids = {c.cluster_id for c in removed}
    assert retained_ids | removed_ids == all_ids
    assert retained_ids & removed_ids == set()
    assert len(retained) + len(removed) == len(clusters)


@settings(max_examples=80, deadline=None)
@given(layouts, st.integers(1, 5))
def test_retained_have_unique_members_dissolve(layout, min_unique):
    """Descending pass: every retained cluster keeps >= min_unique
    members not found in any other retained cluster (unless it is the
    sole survivor). Holds because each survivor was checked against a
    superset of the final retained set, and removals only grow its
    unique-member count."""
    clusters = build(layout)
    retained, _ = consolidate(clusters, min_unique, dissolve_covered=True)
    if len(retained) <= 1:
        return
    for cluster in retained:
        others = [c for c in retained if c is not cluster]
        unique = cluster.unique_members(others)
        assert len(unique) >= min_unique


@settings(max_examples=80, deadline=None)
@given(layouts, st.integers(1, 5))
def test_retained_have_unique_members_ascending(layout, min_unique):
    """Paper's ascending pass (§4.5): each retained cluster keeps
    >= min_unique members not found in any *larger* retained cluster.
    (Pairwise uniqueness against the whole retained set is NOT
    guaranteed by this pass — a smaller survivor may cover the member
    that made a larger one unique; that stronger property only holds
    for the descending ``dissolve_covered`` variant.)"""
    clusters = build(layout)
    retained, _ = consolidate(clusters, min_unique, dissolve_covered=False)
    ordered = sorted(retained, key=lambda cl: (cl.size, cl.cluster_id))
    for position, cluster in enumerate(ordered):
        larger = ordered[position + 1 :]
        if not larger:
            continue
        unique = cluster.unique_members(larger)
        assert len(unique) >= min_unique


@settings(max_examples=80, deadline=None)
@given(layouts, st.integers(0, 5), st.booleans())
def test_empty_clusters_always_removed(layout, min_unique, dissolve):
    clusters = build(layout)
    retained, _ = consolidate(clusters, min_unique, dissolve)
    for cluster in retained:
        assert cluster.size > 0


@settings(max_examples=80, deadline=None)
@given(layouts, st.integers(1, 5), st.booleans())
def test_nonoverlapping_layouts_untouched(layout, min_unique, dissolve):
    """Pairwise-disjoint clusters of sufficient size always survive."""
    # Make the layout disjoint by offsetting indices per cluster.
    disjoint = [
        {index + 100 * cid for index in members}
        for cid, members in enumerate(layout)
        if len(members) >= min_unique
    ]
    clusters = build(disjoint)
    retained, removed = consolidate(clusters, min_unique, dissolve)
    assert len(retained) == len(disjoint)
    assert removed == []


@settings(max_examples=60, deadline=None)
@given(layouts, st.integers(0, 5))
def test_deterministic(layout, min_unique):
    clusters_a = build(layout)
    clusters_b = build(layout)
    retained_a, _ = consolidate(clusters_a, min_unique)
    retained_b, _ = consolidate(clusters_b, min_unique)
    assert [c.cluster_id for c in retained_a] == [
        c.cluster_id for c in retained_b
    ]


def oracle_removed(clusters, min_unique, dissolve):
    """Ids that the §4.5 passes dismiss, in dismissal order, decided on
    each cluster's whole unique-member set (:meth:`Cluster.unique_members`)."""
    removed = [cl.cluster_id for cl in clusters if cl.size == 0]
    live = [cl for cl in clusters if cl.cluster_id not in removed]
    if dissolve:
        order = sorted(live, key=lambda cl: (-cl.size, cl.cluster_id))
        for cluster in order:
            others = [
                other
                for other in order
                if other is not cluster and other.cluster_id not in removed
            ]
            if not others:
                break
            if len(cluster.unique_members(others)) < min_unique:
                removed.append(cluster.cluster_id)
    else:
        order = sorted(live, key=lambda cl: (cl.size, cl.cluster_id))
        for position, cluster in enumerate(order):
            larger = [
                other
                for other in order[position + 1 :]
                if other.cluster_id not in removed
            ]
            if len(cluster.unique_members(larger)) < min_unique:
                removed.append(cluster.cluster_id)
    return removed


@settings(max_examples=300, deadline=None)
@given(layouts, st.integers(0, 5), st.booleans())
def test_decisions_match_unique_members_oracle(layout, min_unique, dissolve):
    """The early-exit uniqueness test dismisses exactly what the
    whole-set oracle dismisses, in the same order, in both passes."""
    clusters = build(layout)
    retained, removed = consolidate(clusters, min_unique, dissolve)
    expected = oracle_removed(build(layout), min_unique, dissolve)
    assert [cl.cluster_id for cl in removed] == expected
    assert [cl.cluster_id for cl in retained] == [
        cl.cluster_id for cl in clusters if cl.cluster_id not in expected
    ]


@settings(max_examples=150, deadline=None)
@given(layouts, st.integers(-1, 6))
def test_has_unique_matches_unique_members(layout, needed):
    clusters = build(layout)
    for cluster in clusters:
        others = [other for other in clusters if other is not cluster]
        assert cluster.has_unique(others, needed) == (
            len(cluster.unique_members(others)) >= needed
        )
        # *others* may contain the cluster itself; it never counts.
        assert cluster.has_unique(clusters, needed) == cluster.has_unique(
            others, needed
        )
