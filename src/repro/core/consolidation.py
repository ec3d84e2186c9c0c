"""Cluster consolidation (paper §4.5).

Successive seed generation can create clusters that heavily overlap —
e.g. when two sequences from the same true cluster are both drawn as
seeds. Consolidation dismisses clusters that are "covered" by others:
a cluster whose *unique* members (sequences belonging to no other
retained cluster it is checked against) number fewer than a threshold
is removed. Surviving clusters therefore differ substantially from
each other.

Two passes exist. The default (``dissolve_covered=True``) examines
clusters **largest first** and checks each against every other
retained cluster, which also dissolves an over-merged "mixture"
cluster once purer clusters cover it. The paper's own pass
(``dissolve_covered=False``) examines clusters in ascending size and
checks each against the retained *larger* ones only.

Either pass asks :meth:`~repro.core.cluster.Cluster.has_unique`, which
stops at the threshold-th unique member: a pass over ``k`` disjoint
clusters costs at most ``k² · min_unique_members`` membership lookups,
whatever the clusters' sizes.
"""

from __future__ import annotations

from collections.abc import Sequence
from collections.abc import Set as AbstractSet

from ..obs import get_logger, get_registry
from .cluster import Cluster

_logger = get_logger("core.consolidation")


def consolidate(
    clusters: Sequence[Cluster],
    min_unique_members: int,
    dissolve_covered: bool = True,
) -> tuple[list[Cluster], list[Cluster]]:
    """Apply the paper's consolidation procedure.

    Parameters
    ----------
    clusters:
        The current cluster collection.
    min_unique_members:
        A cluster survives only if at least this many of its members
        belong to no other retained cluster. The paper suggests the
        significance threshold ``c`` for this value.
    dissolve_covered:
        When ``True`` (the default) the examination runs **largest
        first** and a cluster — regardless of size — is dismissed when
        its members are covered by the union of the *other* retained
        clusters. The paper's ascending-size pass (``False``) can never
        remove an over-merged "mixture" cluster: being the largest, it
        is examined last, after every pure cluster it covers has
        already been dismissed — so the mixture survives and the pure
        clusters die. The descending pass dissolves mixtures once purer
        clusters exist while leaving genuinely distinct clusters
        untouched (they keep unique members). See DESIGN.md.

    Returns
    -------
    (retained, removed):
        The surviving clusters (original relative order preserved) and
        the dismissed ones.

    Notes
    -----
    * Uniqueness is evaluated against retained clusters only, so
      removing one cluster cannot be justified by another cluster that
      is itself removed.
    * Empty clusters are always dismissed — a cluster that attracted no
      sequences carries no model worth keeping.
    """
    if min_unique_members < 0:
        raise ValueError("min_unique_members must be non-negative")

    removed: list[Cluster] = []
    removed_ids: set[int] = set()

    for cluster in clusters:
        if cluster.size == 0:
            removed.append(cluster)
            removed_ids.add(cluster.cluster_id)

    live = [cl for cl in clusters if cl.cluster_id not in removed_ids]
    if dissolve_covered:
        # Largest first; ties broken by id for determinism.
        order = sorted(live, key=lambda cl: (-cl.size, cl.cluster_id))
        for cluster in order:
            others = [
                other
                for other in order
                if other is not cluster and other.cluster_id not in removed_ids
            ]
            if not others:
                break  # never dissolve the last remaining cluster
            if not cluster.has_unique(others, min_unique_members):
                removed.append(cluster)
                removed_ids.add(cluster.cluster_id)
    else:
        # The paper's §4.5 pass: ascending size, uniqueness against the
        # retained larger clusters only.
        order = sorted(live, key=lambda cl: (cl.size, cl.cluster_id))
        for position, cluster in enumerate(order):
            larger = [
                other
                for other in order[position + 1 :]
                if other.cluster_id not in removed_ids
            ]
            if not cluster.has_unique(larger, min_unique_members):
                removed.append(cluster)
                removed_ids.add(cluster.cluster_id)

    retained = [cl for cl in clusters if cl.cluster_id not in removed_ids]
    registry = get_registry()
    if registry.enabled:
        registry.counter("consolidation.passes").inc()
        registry.counter("consolidation.dismissed").inc(len(removed))
    if removed and _logger.isEnabledFor(10):  # logging.DEBUG
        _logger.debug(
            "dismissed clusters",
            extra={
                "dismissed": sorted(cl.cluster_id for cl in removed),
                "retained": len(retained),
            },
        )
    return retained, removed


def drop_dismissed(
    assignments: dict[int, AbstractSet[int]], dismissed_ids: set[int]
) -> None:
    """Strip §4.5-dismissed cluster ids from every sequence's
    assignment, in place; a sequence left with no cluster becomes
    unclustered. A changed assignment gets a new set: the old one may
    be shared (:meth:`~repro.core.cluseq.ClusteringResult.record_join`)."""
    for index, ids in assignments.items():
        if ids & dismissed_ids:
            assignments[index] = ids - dismissed_ids
