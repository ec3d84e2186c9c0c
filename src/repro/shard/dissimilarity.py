"""Inter-PST context-tree dissimilarity over flat exports.

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

where ``U`` is the union of the significant context labels exported by
the two trees' :class:`~repro.core.backends.flatten.FlattenedPST`
tables, and ``P_X(. | u)`` is tree X's smoothed next-symbol
distribution at the deepest exported suffix of ``u`` (the same
longest-suffix prediction walk the scoring kernels use). ``D`` is
symmetric, ``D(S, S) = 0``, and ``D`` is bounded by 2 (two
distributions can differ by at most total variation 1 = L1 2).

Everything here is a pure deterministic function of the two flat
exports — no RNG, no engine state — so the cross-shard consolidation
pass that uses it is bit-identical across repeated runs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.backends.flatten import FlattenedPST

__all__ = [
    "context_tree_distance",
    "flat_labels",
    "predict_row",
]


def flat_labels(flat: FlattenedPST) -> list[tuple[int, ...]]:
    """The context label of every exported row, index-aligned.

    Rows are BFS-ordered parents-before-children, so one forward pass
    over the CSR child tables reconstructs every label: a child's
    label is its edge symbol prepended to its parent's label.
    """
    labels: list[tuple[int, ...]] = [()] * flat.node_count
    offsets = flat.child_offsets
    symbols = flat.child_symbols
    rows = flat.child_rows
    for row in range(flat.node_count):
        label = labels[row]
        for k in range(int(offsets[row]), int(offsets[row + 1])):
            labels[int(rows[k])] = (int(symbols[k]),) + label
    return labels


def predict_row(flat: FlattenedPST, context: Sequence[int]) -> int:
    """Row of the deepest exported suffix of *context* (root = 0).

    Walks the dense transition table from the root, consuming
    *context* right-to-left (the trie is built over reversed
    sequences), and stops at the first missing child — the same
    longest-significant-suffix rule the scoring kernels apply.
    """
    row = 0
    transitions = flat.transitions
    start = max(0, len(context) - flat.max_depth)
    for i in range(len(context) - 1, start - 1, -1):
        nxt = int(transitions[row, context[i]])
        if nxt < 0:
            break
        row = nxt
    return row


def context_tree_distance(a: FlattenedPST, b: FlattenedPST) -> float:
    """Mean L1 distance between the trees' next-symbol distributions.

    Averaged over the union of both trees' exported context labels;
    see the module docstring for the formula and its paper anchor.
    """
    if a.alphabet_size != b.alphabet_size:
        raise ValueError(
            f"alphabet size mismatch: {a.alphabet_size} != {b.alphabet_size}"
        )
    labels = sorted(set(flat_labels(a)) | set(flat_labels(b)))
    probs_a = np.exp(a.log_probs)
    probs_b = np.exp(b.log_probs)
    total = 0.0
    for label in labels:
        row_a = predict_row(a, label)
        row_b = predict_row(b, label)
        total += float(np.abs(probs_a[row_a] - probs_b[row_b]).sum())
    # The union always contains at least the root label ().
    return total / len(labels)

