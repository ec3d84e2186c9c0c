"""Inter-PST context-tree dissimilarity.

The cross-shard merge criterion generalizes the paper's §4.5 overlap
test — which needs the member sequences of both clusters — to a pair
of cluster *models* living on different shards, where shipping members
is exactly what sharding is trying to avoid. Instead we compare the
models directly, in the spirit of the context-tree distances of
Leonardi et al., "Detecting phylogenetic relations out from sparse
context trees" (PAPERS.md): two PSTs are close when they predict the
same next-symbol distributions over their significant contexts.

The distance computed here is::

    D(S, T) = (1 / |U|) * sum over u in U of
              || P_S(. | u) - P_T(. | u) ||_1

where ``U`` is the union of the two trees' walkable context labels
(:meth:`~repro.core.pst.ProbabilisticSuffixTree.walkable_nodes`), and
``P_X(. | u)`` is tree X's smoothed next-symbol distribution at its
prediction node for ``u`` (the deepest walkable suffix of ``u``, the
same longest-suffix walk the scorers use). Each row is read as
``exp(log p)`` with the scorers' ``math.log`` convention, so the
distance rounds exactly as it did on the kernel's log tables. ``D`` is
symmetric, ``D(S, S) = 0``, and ``D`` is bounded by 2 (two
distributions can differ by at most total variation 1 = L1 2).

Everything here is a pure deterministic function of the two trees —
no RNG, no engine state — so the cross-shard consolidation pass that
uses it is bit-identical across repeated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..core.pst import ProbabilisticSuffixTree, PSTNode
from ..core.similarity import _LOG_ZERO

__all__ = ["ContextProfile", "context_tree_distance"]


@dataclass(frozen=True)
class ContextProfile:
    """One tree's side of :func:`context_tree_distance`, built once.

    A consolidation round builds one profile per cluster and scores
    every cross-shard pair from them; the tree must not change while
    its profile is in use.
    """

    pst: ProbabilisticSuffixTree
    #: The walkable context labels, root ``()`` included.
    labels: frozenset[tuple[int, ...]]
    #: ``exp(log p)`` per walkable node: its next-symbol distribution.
    rows: dict[PSTNode, npt.NDArray[np.float64]]

    @classmethod
    def of(cls, pst: ProbabilisticSuffixTree) -> "ContextProfile":
        labels: list[tuple[int, ...]] = []
        rows: dict[PSTNode, npt.NDArray[np.float64]] = {}
        for label, node in pst.walkable_nodes():
            labels.append(label)
            logs = [
                math.log(p) if p > 0.0 else _LOG_ZERO
                for p in pst.node_probability_vector(node).tolist()
            ]
            rows[node] = np.exp(np.asarray(logs, dtype=np.float64))
        return cls(pst, frozenset(labels), rows)

    def distance(self, other: "ContextProfile") -> float:
        """:func:`context_tree_distance` of the two profiled trees."""
        if self.pst.alphabet_size != other.pst.alphabet_size:
            raise ValueError(
                f"alphabet size mismatch: {self.pst.alphabet_size} != "
                f"{other.pst.alphabet_size}"
            )
        labels = sorted(self.labels | other.labels)
        total = 0.0
        for label in labels:
            row = self.rows[self.pst.prediction_node(label)]
            other_row = other.rows[other.pst.prediction_node(label)]
            total += float(np.abs(row - other_row).sum())
        # The union always contains at least the root label ().
        return total / len(labels)


def context_tree_distance(
    a: ProbabilisticSuffixTree, b: ProbabilisticSuffixTree
) -> float:
    """Mean L1 distance between the trees' next-symbol distributions.

    Averaged over the union of both trees' walkable context labels;
    see the module docstring for the formula and its paper anchor.
    """
    return ContextProfile.of(a).distance(ContextProfile.of(b))
