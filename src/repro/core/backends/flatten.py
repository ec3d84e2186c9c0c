"""Flattened array form of a probabilistic suffix tree.

The reference scorer steps ``PSTNode`` objects through the tree's
transition table. The batch kernel instead reads this module's
:class:`FlattenedPST`: the tree's walkable nodes
(:meth:`~repro.core.pst.ProbabilisticSuffixTree.walkable_nodes`, the
only nodes the §4.3 prediction walk can reach) as rows of two dense
``(nodes × alphabet)`` tables:

* the **prediction-node automaton** ``automaton[r, a]``: the row of
  the prediction node after row ``r``'s label followed by symbol ``a``
  (see :func:`_automaton`), and
* the **log conditional probabilities** ``log P_S(s | label)``.
  Subtracting the background log vector yields the per-node
  ``log P_S − log P^r`` ratio vectors the SIM dynamic program consumes
  (the subtraction lives in the stack because the background is a
  per-call argument, not a tree property).

Bit-exactness
-------------
The rows are :meth:`~repro.core.pst.ProbabilisticSuffixTree.node_probability_vector`,
the same single IEEE ops on the same operands as the reference's
scalar estimate, and every log is ``math.log`` per entry with the
reference's zero convention. ``np.log`` differs from ``math.log`` by
one ulp on a small fraction of inputs, which would be enough to flip
near-tie segment bounds and, transitively, clustering decisions. So
every entry of ``log_probs`` is bit-identical to what the reference
walk computes.

:func:`flatten_pst` always builds, and only for a closed tree. The only
cache of exports is the one
:class:`~repro.core.backends.dispatch.PstBatchScorer` keeps for its own
trees: each is flattened at most once, while it is closed and unwritten
since the scorer was built.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ...obs import get_registry
from ..pst import ProbabilisticSuffixTree
from ..similarity import _LOG_ZERO


@dataclass(frozen=True)
class FlattenedPST:
    """Array export of one closed PST's walkable nodes; row 0 is the root.

    A snapshot: a later write to the tree makes it stale.
    """

    #: ``automaton[r, a]``: the row of the prediction node after row
    #: ``r``'s label followed by symbol ``a``.
    automaton: npt.NDArray[np.intp]
    #: ``log_probs[r, s] = log P_S(s | label(r))``, bit-identical to the
    #: reference's ``math.log`` path (see module docstring).
    log_probs: npt.NDArray[np.float64]

    @property
    def node_count(self) -> int:
        return int(self.log_probs.shape[0])


def _automaton(
    depths: npt.NDArray[np.intp],
    parents: npt.NDArray[np.intp],
    edges: npt.NDArray[np.intp],
    children: npt.NDArray[np.intp],
) -> npt.NDArray[np.intp]:
    """The prediction-node automaton ``δ[row, a]`` of one closed tree.

    Row ``r`` has label length ``depths[r]``; ``parents[r]`` is the
    row of its label minus the oldest symbol ``edges[r]`` (the suffix
    link, which in a reversed trie is the structural parent), and
    ``children[r, a]`` is the row of its significant child along ``a``,
    or −1.

    ``δ[r, a]`` is the row of the longest walkable suffix of
    ``label(r)·a``. Every suffix of ``x·w·a`` but itself is a suffix
    of ``w·a``, and on a closed tree ``x·w·a`` is walkable exactly when
    ``w·a`` is and ``w·a`` has a significant child ``x``. So for a row
    ``r = x·w`` (suffix link ``w``, edge symbol ``x``), with
    ``d = δ[w, a]``: ``δ[r, a]`` is child ``x`` of ``d`` when
    ``depth(d) = depth(w) + 1`` and that child exists, else ``d``.
    Rows are in breadth-first order, so each depth is one contiguous
    block computed from the one above it.
    """
    delta = np.empty_like(children)
    delta[0] = np.where(children[0] >= 0, children[0], 0)
    starts = np.flatnonzero(np.diff(depths)) + 1
    for lo, hi in zip(starts, [*starts[1:], depths.shape[0]]):
        prefix = delta[parents[lo:hi]]
        child = children[prefix, edges[lo:hi, None]]
        deeper = (depths[prefix] == depths[lo]) & (child >= 0)
        delta[lo:hi] = np.where(deeper, child, prefix)
    return delta


def flatten_pst(pst: ProbabilisticSuffixTree) -> FlattenedPST:
    """Export the walkable nodes of closed *pst* as a :class:`FlattenedPST`.

    The export captures exactly what the paper's §4.3 scoring walk can
    observe: the prediction node after each symbol and each prediction
    node's (smoothed) next-symbol log distribution. Raises
    ``ValueError`` for a tree that is not closed: the automaton of the
    prediction walk holds only on a closed tree (see
    :meth:`~repro.core.pst.ProbabilisticSuffixTree.transitions`).
    """
    if not pst.transitions()[1]:
        raise ValueError(
            "the batch kernel scores closed trees only (see "
            "ProbabilisticSuffixTree.transitions); score this "
            "tree with similarity()"
        )
    started = time.perf_counter()
    rows: dict[tuple[int, ...], int] = {}
    depths: list[int] = []
    parents: list[int] = []
    edges: list[int] = []
    probs: list[npt.NDArray[np.float64]] = []
    for label, node in pst.walkable_nodes():
        rows[label] = len(rows)
        depths.append(len(label))
        parents.append(rows[label[1:]] if label else -1)
        edges.append(label[0] if label else 0)
        probs.append(pst.node_probability_vector(node))
    count = len(rows)
    parent_rows = np.asarray(parents, dtype=np.intp)
    edge_symbols = np.asarray(edges, dtype=np.intp)
    children = np.full((count, pst.alphabet_size), -1, dtype=np.intp)
    children[parent_rows[1:], edge_symbols[1:]] = np.arange(1, count)
    log_probs = np.asarray(
        [
            math.log(p) if p > 0.0 else _LOG_ZERO
            for p in np.concatenate(probs).tolist()
        ],
        dtype=np.float64,
    ).reshape(count, pst.alphabet_size)
    flat = FlattenedPST(
        automaton=_automaton(
            np.asarray(depths, dtype=np.intp), parent_rows, edge_symbols, children
        ),
        log_probs=log_probs,
    )
    registry = get_registry()
    if registry.enabled:
        registry.counter("backend.flatten_builds").inc()
        registry.timer("backend.flatten_seconds").record(
            time.perf_counter() - started
        )
    return flat
