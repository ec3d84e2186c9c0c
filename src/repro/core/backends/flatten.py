"""Flattened array form of a probabilistic suffix tree.

The reference scorer walks ``PSTNode`` objects — a pointer-chasing dict
lookup per context symbol per position. The vectorized backend instead
consumes this module's :class:`FlattenedPST`: the *walkable* subtree
(the root plus every chain-significant node, i.e. nodes reachable from
the root through children whose ``count`` is at least the significance
threshold ``c``) laid out as flat arrays:

* a CSR-style child table (``child_offsets`` / ``child_symbols`` /
  ``child_rows``) over significant children only,
* a suffix-link table — in a reversed-sequence trie the structural
  parent *is* the suffix link (the parent's label is the child's label
  minus its oldest symbol), so ``suffix_links`` doubles as the parent
  array,
* a dense ``(nodes × alphabet)`` transition table for the prediction
  walk (−1 where no significant child exists), and
* a precomputed ``(nodes × alphabet)`` table of **log conditional
  probabilities** ``log P_S(s | label)``. Subtracting the background
  log vector yields the per-node ``log P_S − log P^r`` ratio vectors
  the SIM dynamic program consumes (the subtraction lives in the
  scorer because the background is a per-call argument, not a tree
  property).

Bit-exactness
-------------
The reference implementation computes every log with ``math.log`` on
scalars. ``np.log`` differs from ``math.log`` by one ulp on a small
fraction of inputs, which would be enough to flip near-tie segment
bounds and, transitively, clustering decisions. The export therefore
computes the probability table with numpy (the arithmetic —
``count/total`` and the §5.2 smoothing affine map — is IEEE-identical
to the scalar reference) but takes logs via ``math.log`` applied once
per *distinct* probability value, memoized across exports. The result:
every entry of ``log_probs`` is bit-identical to what the reference
walk would compute, so the vectorized backend reproduces reference
scores exactly, not merely within a tolerance.

Only nodes reachable through significant children are exported: the
reference prediction walk (`ProbabilisticSuffixTree.prediction_node`)
can never enter any other node, so insignificant subtrees — kept in
the tree because they may *become* significant — are dead weight for
scoring and would bloat the dense tables.

:func:`flatten_pst` always builds. The only cache of exports is the
one :class:`~repro.core.backends.dispatch.PstBatchScorer` keeps for
the trees of its current stack, keyed by tree identity and mutation
:attr:`~repro.core.pst.ProbabilisticSuffixTree.version`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ...obs import get_registry
from ..pst import ProbabilisticSuffixTree, PSTNode
from ..similarity import _LOG_ZERO

#: Memoized ``math.log`` over probability values. Probabilities are
#: ratios of small integer counts (plus the smoothing affine map), so
#: distinct values recur heavily across exports; memoizing makes
#: re-flattening a mutated tree cheap. Bounded defensively — adversarial
#: float churn could otherwise grow it without limit.
_LOG_MEMO: dict[float, float] = {}
_LOG_MEMO_MAX = 1 << 20


def _exact_log(value: float) -> float:
    """``math.log`` with the reference's zero convention, memoized."""
    if value <= 0.0:
        return _LOG_ZERO
    cached = _LOG_MEMO.get(value)
    if cached is None:
        if len(_LOG_MEMO) >= _LOG_MEMO_MAX:  # pragma: no cover - defensive
            _LOG_MEMO.clear()
        cached = math.log(value)
        _LOG_MEMO[value] = cached
    return cached


@dataclass(frozen=True)
class FlattenedPST:
    """Array export of one PST's walkable (chain-significant) subtree.

    Row 0 is always the root. All arrays are read-only views from the
    scorer's perspective: a mutated tree gets a fresh export (compare
    :attr:`version` against the tree's current version).
    """

    alphabet_size: int
    max_depth: int
    significance_threshold: int
    p_min: float
    #: The tree's mutation version this export was built from.
    version: int
    #: Label length per row (0 for the root).
    depths: npt.NDArray[np.int32]
    #: Row of the node labelled with this row's label minus its oldest
    #: symbol — the suffix link, which in a reversed trie is simply the
    #: structural parent. −1 for the root.
    suffix_links: npt.NDArray[np.int32]
    #: CSR over significant children: row ``r``'s children live at
    #: ``child_symbols[child_offsets[r]:child_offsets[r+1]]`` /
    #: ``child_rows[...]``.
    child_offsets: npt.NDArray[np.int32]
    child_symbols: npt.NDArray[np.int32]
    child_rows: npt.NDArray[np.int32]
    #: Dense walk table: ``transitions[r, s]`` is the row of the child
    #: of ``r`` along context symbol ``s``, or −1 when that child is
    #: missing or insignificant (the prediction walk stops there).
    transitions: npt.NDArray[np.int32]
    #: ``log_probs[r, s] = log P_S(s | label(r))``, bit-identical to the
    #: reference's ``math.log`` path (see module docstring).
    log_probs: npt.NDArray[np.float64]

    @property
    def node_count(self) -> int:
        return int(self.depths.shape[0])


def _probability_rows(
    nodes: list[PSTNode], alphabet_size: int, p_min: float
) -> npt.NDArray[np.float64]:
    """The (smoothed) next-symbol distribution per node, reference-exact.

    Mirrors the per-entry estimate that the reference scoring loop
    caches in ``PSTNode.log_probs``: an observation-free node gets the
    uniform fallback *without* smoothing; otherwise raw count ratios pass
    through the §5.2 affine adjustment when ``p_min > 0``. Every
    operation is a single IEEE op on the same operands as the scalar
    reference, so the rows are bit-identical. The rows are rebuilt from
    ``next_counts`` rather than read from the node cache, which holds
    only the entries some scoring call has touched.
    """
    counts = np.zeros((len(nodes), alphabet_size), dtype=np.float64)
    row_index: list[int] = []
    symbol_index: list[int] = []
    values: list[int] = []
    for row, node in enumerate(nodes):
        for symbol, count in node.next_counts.items():
            row_index.append(row)
            symbol_index.append(symbol)
            values.append(count)
    if row_index:
        counts[row_index, symbol_index] = values
    # Counts are small integers, exact in float64, so the row sums equal
    # the reference's integer ``next_total`` exactly and each division
    # is the identical IEEE op on identical operands.
    totals = counts.sum(axis=1)
    # Counts are non-negative integers, so "< 0.5" is an exact zero test
    # (CLQ003 forbids float ``==`` in core, and rightly so elsewhere).
    empty = totals < 0.5
    probs: npt.NDArray[np.float64] = counts / np.where(empty, 1.0, totals)[:, None]
    if p_min > 0.0:
        probs = (1.0 - alphabet_size * p_min) * probs + p_min
    probs[empty] = 1.0 / alphabet_size
    return probs


def _exact_log_table(
    probs: npt.NDArray[np.float64],
) -> npt.NDArray[np.float64]:
    """Elementwise ``math.log`` (reference convention) via unique values."""
    flat = probs.ravel()
    unique, inverse = np.unique(flat, return_inverse=True)
    logs = np.fromiter(
        (_exact_log(value) for value in unique.tolist()),
        dtype=np.float64,
        count=unique.shape[0],
    )
    table: npt.NDArray[np.float64] = logs[inverse].reshape(probs.shape)
    return table


def flatten_pst(pst: ProbabilisticSuffixTree) -> FlattenedPST:
    """Export the walkable subtree of *pst* as a :class:`FlattenedPST`.

    The export captures exactly what the paper's §4.3 scoring walk can
    observe: the root, every chain-significant node, and their (smoothed)
    next-symbol log distributions.
    """
    started = time.perf_counter()
    threshold = pst.significance_threshold
    alphabet_size = pst.alphabet_size

    # Breadth-first enumeration of the walkable set: the root plus every
    # node reachable through children with count ≥ c. BFS order keeps
    # parents before children, which makes row assignment one pass.
    nodes: list[PSTNode] = [pst.root]
    depths: list[int] = [0]
    suffix_links: list[int] = [-1]
    edges: list[list[tuple[int, int]]] = [[]]  # per row: (symbol, child row)
    cursor = 0
    while cursor < len(nodes):
        node = nodes[cursor]
        for symbol, child in node.children.items():
            if child.count < threshold:
                continue
            child_row = len(nodes)
            nodes.append(child)
            depths.append(depths[cursor] + 1)
            suffix_links.append(cursor)
            edges.append([])
            edges[cursor].append((symbol, child_row))
        cursor += 1

    count = len(nodes)
    transitions = np.full((count, alphabet_size), -1, dtype=np.int32)
    child_offsets = np.zeros(count + 1, dtype=np.int32)
    flat_symbols: list[int] = []
    flat_rows: list[int] = []
    for row, row_edges in enumerate(edges):
        row_edges.sort()
        for symbol, child_row in row_edges:
            transitions[row, symbol] = child_row
            flat_symbols.append(symbol)
            flat_rows.append(child_row)
        child_offsets[row + 1] = len(flat_symbols)

    probs = _probability_rows(nodes, alphabet_size, pst.p_min)
    log_probs = _exact_log_table(probs)

    flat = FlattenedPST(
        alphabet_size=alphabet_size,
        max_depth=pst.max_depth,
        significance_threshold=threshold,
        p_min=pst.p_min,
        version=pst.version,
        depths=np.asarray(depths, dtype=np.int32),
        suffix_links=np.asarray(suffix_links, dtype=np.int32),
        child_offsets=child_offsets,
        child_symbols=np.asarray(flat_symbols, dtype=np.int32),
        child_rows=np.asarray(flat_rows, dtype=np.int32),
        transitions=transitions,
        log_probs=log_probs,
    )
    registry = get_registry()
    if registry.enabled:
        registry.counter("backend.flatten_builds").inc()
        registry.counter("backend.flatten_nodes").inc(count)
        registry.timer("backend.flatten_seconds").record(
            time.perf_counter() - started
        )
    return flat
