"""PST node-budget pruning (paper §5.1).

When memory is limited, a probabilistic suffix tree must be cut down
once it exceeds its node budget. The paper proposes three strategies,
all implemented here:

1. ``smallest_count`` — prune the node with the smallest count first;
   such nodes are the least likely to ever become significant.
2. ``longest_label`` — prune the deepest node first; by the short
   memory property, long contexts contribute least to prediction.
3. ``expected_vector`` — prune the node whose probability vector is
   closest to its parent's ("expected"), because the parent is the
   substitute used after pruning and loses the least information. The
   paper applies this only once all insignificant nodes are gone.

``paper`` (the default) chains them the way §5.1 presents them:
insignificant nodes go first by (count asc, depth desc); if the budget
is still exceeded, significant nodes go by vector closeness to their
parent.

Pruning always removes whole subtrees (a child's label extends its
parent's, so a child can never outlive its parent in a suffix trie).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

import numpy as np

from ..obs import get_logger

_logger = get_logger("core.pruning")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pst import PSTNode, ProbabilisticSuffixTree

#: Valid strategy names accepted by :func:`prune_to`.
STRATEGIES = ("smallest_count", "longest_label", "expected_vector", "paper")

#: A prunable tree position: (parent node, edge symbol, child node, depth).
Candidate = tuple["PSTNode", int, "PSTNode", int]


def _candidates(pst: "ProbabilisticSuffixTree") -> list[Candidate]:
    """Every non-root node, as ``(parent, symbol, node, depth)``.

    Depth-1 nodes (single-symbol contexts) are included: the paper sets
    no floor, and the root always survives as the final fallback.
    """
    out: list[Candidate] = []
    stack: list[tuple["PSTNode", int]] = [(pst.root, 0)]
    while stack:
        node, depth = stack.pop()
        for symbol, child in node.children.items():
            out.append((node, symbol, child, depth + 1))
            stack.append((child, depth + 1))
    return out


def _vector_divergence(pst: "ProbabilisticSuffixTree", candidate: Candidate) -> float:
    """L1 (variational) distance between a node's vector and its parent's.

    This is the paper's "expectedness" test: a small distance means the
    parent predicts almost the same distribution, so pruning the child
    barely changes similarity estimates.
    """
    parent, _, child, _ = candidate
    child_vec = pst.node_probability_vector(child)
    parent_vec = pst.node_probability_vector(parent)
    return float(np.abs(child_vec - parent_vec).sum())


def _prune_by_key(
    pst: "ProbabilisticSuffixTree",
    candidates: Iterable[Candidate],
    key: Callable[[Candidate], tuple[float, float]],
    target_nodes: int,
) -> int:
    """Prune candidate subtrees in *key* order until within budget.

    Re-checks each candidate before removal (an earlier subtree removal
    may have already detached it). Returns the number of nodes removed.
    """
    removed_total = 0
    for candidate in sorted(candidates, key=key):
        if pst.node_count <= target_nodes:
            break
        parent, symbol, child, _ = candidate
        if parent.children.get(symbol) is not child:
            continue  # already gone with an ancestor's subtree
        removed_total += pst._forget_subtree(parent, symbol)
    return removed_total


def prune_to(
    pst: "ProbabilisticSuffixTree",
    max_nodes: int,
    strategy: str = "paper",
    slack: float = 0.9,
) -> int:
    """Prune *pst* down to at most ``max_nodes · slack`` nodes (§5.1).

    The *slack* factor leaves headroom so insertion does not trigger a
    prune on every new node right after hitting the budget.

    Returns the number of nodes removed. Raises ``ValueError`` for an
    unknown strategy or a budget smaller than one node.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be positive")
    if not 0.0 < slack <= 1.0:
        raise ValueError("slack must be in (0, 1]")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown prune strategy {strategy!r}; expected {STRATEGIES}")

    target = max(1, int(max_nodes * slack))
    if pst.node_count <= target:
        return 0

    candidates = _candidates(pst)
    removed = 0

    if strategy == "smallest_count":
        removed += _prune_by_key(
            pst, candidates, key=lambda c: (c[2].count, -c[3]), target_nodes=target
        )
    elif strategy == "longest_label":
        removed += _prune_by_key(
            pst, candidates, key=lambda c: (-c[3], c[2].count), target_nodes=target
        )
    elif strategy == "expected_vector":
        removed += _prune_by_key(
            pst,
            candidates,
            key=lambda c: (_vector_divergence(pst, c), c[2].count),
            target_nodes=target,
        )
    else:  # "paper": insignificant first, then expected-vector on the rest
        threshold = pst.significance_threshold
        insignificant = [c for c in candidates if c[2].count < threshold]
        removed += _prune_by_key(
            pst, insignificant, key=lambda c: (c[2].count, -c[3]), target_nodes=target
        )
        if pst.node_count > target:
            remaining = _candidates(pst)
            removed += _prune_by_key(
                pst,
                remaining,
                key=lambda c: (_vector_divergence(pst, c), c[2].count),
                target_nodes=target,
            )
    if removed:
        # A pruned context w can leave its extensions w·a behind, so
        # the tree is no longer closed (see ``transitions()``).
        pst._clear_transitions(still_closed=False)
    if removed and _logger.isEnabledFor(10):  # logging.DEBUG
        _logger.debug(
            "pruned PST",
            extra={
                "strategy": strategy,
                "removed_nodes": removed,
                "node_count": pst.node_count,
                "max_nodes": max_nodes,
            },
        )
    return removed
