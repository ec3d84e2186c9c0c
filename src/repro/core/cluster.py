"""Sequence clusters: a PST model plus its current membership.

A CLUSEQ cluster is *defined by its model*: the probabilistic suffix
tree accumulates the best-scoring segments of every sequence that has
ever joined (contributions are additive and never subtracted — §4.4),
while the membership set reflects only the current iteration's
assignment. Clusters may overlap; a sequence can be a member of several
clusters at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from .pst import ProbabilisticSuffixTree


@dataclass
class Membership:
    """One sequence's current relationship to one cluster."""

    # Spelled out rather than ``dataclass(slots=True)``, which needs
    # Python 3.10: a record without ``__dict__`` is ~40 B smaller, and
    # the fit, the stream and serve ingest keep one per member.
    __slots__ = ("sequence_index", "log_similarity", "best_start", "best_end")

    sequence_index: int
    log_similarity: float
    best_start: int
    best_end: int


class Cluster:
    """A sequence cluster backed by a probabilistic suffix tree.

    Parameters
    ----------
    cluster_id:
        Stable identifier, unique within one clustering run.
    pst:
        The cluster's model. For a newly-generated cluster this is the
        PST of its single seed sequence; ``None`` for a cluster whose
        tree a fit's holder keeps until the fit returns
        (:class:`~repro.core.fit_worker.HeldTrees`).
    seed_index:
        Database index of the seed sequence that initiated the cluster.
    created_at_iteration:
        The CLUSEQ iteration that generated this cluster (0-based).
    """

    pst: ProbabilisticSuffixTree

    def __init__(
        self,
        cluster_id: int,
        pst: ProbabilisticSuffixTree | None,
        seed_index: int,
        created_at_iteration: int = 0,
    ) -> None:
        self.cluster_id = cluster_id
        if pst is not None:
            self.pst = pst
        self.seed_index = seed_index
        self.created_at_iteration = created_at_iteration
        self._members: dict[int, Membership] = {}

    # -- membership --------------------------------------------------------------

    @property
    def members(self) -> set[int]:
        """Indices of sequences currently assigned to this cluster."""
        return set(self._members.keys())

    @property
    def size(self) -> int:
        """Current number of member sequences."""
        return len(self._members)

    def membership_of(self, sequence_index: int) -> Membership | None:
        """The membership record for *sequence_index*, or ``None``."""
        return self._members.get(sequence_index)

    def contains(self, sequence_index: int) -> bool:
        return sequence_index in self._members

    def set_member(self, membership: Membership) -> bool:
        """Record (or refresh) a membership.

        Returns ``True`` when the sequence was not already a member —
        the caller uses this to decide whether the PST needs updating.
        """
        is_new = membership.sequence_index not in self._members
        self._members[membership.sequence_index] = membership
        return is_new

    def drop_member(self, sequence_index: int) -> bool:
        """Remove a sequence from the membership set (PST untouched).

        Returns ``True`` if the sequence was a member.
        """
        return self._members.pop(sequence_index, None) is not None

    # -- model updates --------------------------------------------------------------

    def join(
        self,
        sequence_index: int,
        encoded: Sequence[int],
        log_similarity: float,
        best_start: int,
        best_end: int,
    ) -> None:
        """Admit a sequence (§4.2) and absorb its best segment (§4.4).

        The sequence's score against this cluster — ``log SIM`` and the
        ``[best_start, best_end)`` segment achieving it — goes into the
        membership record, and ``encoded[best_start:best_end]`` into
        the PST.
        """
        self.set_member(
            Membership(sequence_index, log_similarity, best_start, best_end)
        )
        self.absorb_segment(encoded[best_start:best_end])

    def absorb_segment(self, encoded_segment: Sequence[int]) -> None:
        """Insert a joining sequence's best-scoring segment into the PST.

        This is the paper's §4.4 update rule: all suffixes of the
        (reversed) segment are added to the tree, refreshing counts and
        probability vectors along the way.
        """
        self.pst.add_sequence(encoded_segment)

    # -- bookkeeping ------------------------------------------------------------------

    def has_unique(self, others: Iterable["Cluster"], needed: int) -> bool:
        """Whether at least *needed* members of this cluster belong to
        none of *others* (``len(unique_members(others)) >= needed``).

        §4.5 consolidation asks only this. The walk over the members
        stops at the *needed*-th unique one, so a cluster that shares
        little with *others* costs about ``needed · len(others)``
        lookups however many members it has.
        """
        if needed <= 0:
            return True
        tables = [other._members for other in others if other is not self]
        found = 0
        for index in self._members:
            for table in tables:
                if index in table:
                    break
            else:
                found += 1
                if found >= needed:
                    return True
        return False

    def unique_members(self, others: Iterable["Cluster"]) -> set[int]:
        """Members of this cluster that belong to none of *others*.

        Builds the whole set; :meth:`has_unique` answers the question
        consolidation asks without it.
        """
        unique = self.members
        for other in others:
            if other is self:
                continue
            unique -= other.members
            if not unique:
                break
        return unique

    def __repr__(self) -> str:
        nodes = f", pst_nodes={self.pst.node_count}" if "pst" in vars(self) else ""
        return (
            f"Cluster(id={self.cluster_id}, size={self.size}, "
            f"seed={self.seed_index}{nodes})"
        )
