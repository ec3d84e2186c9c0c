"""Probabilistic suffix trees (PSTs).

The PST is the paper's §3 data structure: a suffix-tree variant built
over *reversed* sequences where every node carries

* ``count`` — the number of occurrences of the node's label (a segment,
  read in original orientation) in the cluster, and
* a next-symbol counter from which the conditional probability vector
  ``P(s | label)`` is derived.

Because the similarity measure only ever conditions on the last
``max_depth`` symbols (the *short memory* property), the tree is a
bounded-depth trie: inserting a sequence of length ``l`` walks at most
``max_depth`` ancestors per position, i.e. ``O(l · max_depth)`` total.

Locating the *longest significant suffix* of a context — the heart of
the paper's prediction procedure — is a single root-to-leaf walk along
the reversed context that stops before the first insignificant node.
The scorer runs that walk only to fill its transition table (see
:meth:`ProbabilisticSuffixTree.transitions`).

Example
-------
>>> from repro.core.pst import ProbabilisticSuffixTree
>>> pst = ProbabilisticSuffixTree(alphabet_size=2, max_depth=3,
...                               significance_threshold=2)
>>> pst.add_sequence([0, 1, 0, 1, 0, 1, 0])
>>> round(pst.probability(1, [0]), 2)   # P(b | a) with a=0, b=1
1.0
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from .pruning import STRATEGIES, prune_to
from .smoothing import adjust_probability, validate_p_min

#: Per-node memory of a scored tree, used to translate the paper's
#: megabyte budgets into node budgets. Measured with tracemalloc over
#: the 7,507 nodes of the final ``fit-outliers`` trees (Python 3.11):
#: 471 B as built (node, children and next-symbol dicts) and 598 B after
#: scoring the database once (log-ratio rows, transition table).
APPROX_BYTES_PER_NODE = 600


class PSTNode:
    """A node of the probabilistic suffix tree.

    Attributes
    ----------
    children:
        Maps a symbol id to the child node; following the edge
        *prepends* that symbol to the node label (the tree is built
        over reversed sequences).
    count:
        Occurrences of the node label in the cluster (the paper's
        ``C``).
    next_counts:
        Maps a symbol id ``s`` to the number of times ``s`` was
        observed immediately after the node label.
    next_total:
        ``sum(next_counts.values())``, maintained by every writer of
        ``next_counts`` so the scoring walk never re-sums the dict.
    log_ratios:
        The scorer's lazily filled row of log ratios ``log P̂(s |
        label) − log p(s)`` under the tree's scoring background (see
        :meth:`ProbabilisticSuffixTree.key_ratio_rows`): ``None`` until
        the node is first scored, then a list of ``alphabet_size``
        entries, each ``None`` until that symbol is first scored. Every
        writer of ``next_counts`` resets it to ``None``.
    """

    __slots__ = ("children", "count", "next_counts", "next_total", "log_ratios")

    def __init__(self) -> None:
        self.children: dict[int, "PSTNode"] = {}
        self.count: int = 0
        self.next_counts: dict[int, int] = {}
        self.next_total: int = 0
        self.log_ratios: list[float | None] | None = None

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (inclusive)."""
        total = 1
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children.values())
        return total


@dataclass(frozen=True)
class PSTStats:
    """A one-walk structural summary of a PST.

    Produced by :meth:`ProbabilisticSuffixTree.stats`; the observability
    gauges and the PST-size experiments read tree state through this
    instead of walking node internals.
    """

    node_count: int
    significant_nodes: int
    max_depth: int
    #: Nodes per label length, index 0 = the root.
    depth_histogram: tuple[int, ...]
    #: Sum of node counts over the whole tree — the total occurrence
    #: mass the model has accumulated (grows with every insertion,
    #: shrinks when pruning discards subtrees).
    total_occurrence_mass: int
    sequences_added: int
    total_symbols: int
    approx_memory_bytes: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "node_count": self.node_count,
            "significant_nodes": self.significant_nodes,
            "max_depth": self.max_depth,
            "depth_histogram": list(self.depth_histogram),
            "total_occurrence_mass": self.total_occurrence_mass,
            "sequences_added": self.sequences_added,
            "total_symbols": self.total_symbols,
            "approx_memory_bytes": self.approx_memory_bytes,
        }


class ProbabilisticSuffixTree:
    """The paper's probabilistic suffix tree, with incremental updates.

    Parameters
    ----------
    alphabet_size:
        Number of distinct symbol ids (``n`` in the paper).
    max_depth:
        Maximum context length ``L`` retained (short-memory bound).
    significance_threshold:
        The paper's ``c``: a node is *significant* when its count is at
        least this value. Only significant nodes participate in
        prediction; insignificant nodes are kept (until pruned) because
        they may become significant as the cluster grows (§5.1).
    p_min:
        Smoothing floor for the adjusted probability estimation (§5.2).
        ``0.0`` disables smoothing.
    max_nodes:
        Optional node budget; exceeding it triggers pruning (§5.1).
        ``None`` means unbounded.
    prune_strategy:
        Strategy name forwarded to :func:`repro.core.pruning.prune_to`
        when the budget is hit; one of ``pruning.STRATEGIES``, checked
        here so a bad name fails before any insert.
    """

    def __init__(
        self,
        alphabet_size: int,
        max_depth: int = 6,
        significance_threshold: int = 30,
        p_min: float = 0.0,
        max_nodes: int | None = None,
        prune_strategy: str = "paper",
    ) -> None:
        if alphabet_size <= 0:
            raise ValueError("alphabet_size must be positive")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if significance_threshold < 1:
            raise ValueError("significance_threshold must be at least 1")
        if max_nodes is not None and max_nodes < 1:
            raise ValueError("max_nodes must be positive when set")
        if prune_strategy not in STRATEGIES:
            raise ValueError(
                f"unknown prune strategy {prune_strategy!r}; expected {STRATEGIES}"
            )
        validate_p_min(alphabet_size, p_min)
        self.alphabet_size = alphabet_size
        self.max_depth = max_depth
        self.significance_threshold = significance_threshold
        self.p_min = p_min
        self.max_nodes = max_nodes
        self.prune_strategy = prune_strategy
        self.root = PSTNode()
        self._node_count = 1
        self._sequences_added = 0
        # Monotone mutation counter; any cache derived from the tree is
        # valid only while the version is unchanged.
        self._version = 0
        # The scorer's transition table (see transitions()); kept here,
        # not on the nodes, so no node refers to another outside the
        # trie and discarded trees need no cycle collection.
        self._transitions: dict[PSTNode, list[PSTNode | None]] = {}
        self._closed = True
        # The log background the nodes' log_ratios rows were filled
        # under (see key_ratio_rows()).
        self._ratio_background: list[float] | None = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_sequences(
        cls, sequences: Sequence[Sequence[int]], **kwargs: Any
    ) -> "ProbabilisticSuffixTree":
        """Build a PST from already-encoded sequences."""
        pst = cls(**kwargs)
        for seq in sequences:
            pst.add_sequence(seq)
        return pst

    def add_sequence(self, encoded: Sequence[int]) -> None:
        """Insert one encoded sequence (or segment) into the tree.

        Every position contributes its next-symbol observation to the
        (at most ``max_depth``) context nodes preceding it; a final
        walk from the sequence end updates occurrence counts for
        segments that end the sequence, so ``count`` reflects *all*
        occurrences of a label, exactly as in a suffix tree.

        A position ``i ≥ max_depth`` updates the nodes of its window
        ``encoded[i - max_depth : i + 1]`` and nothing else (the short
        memory property), so those positions are counted by window and
        each distinct window is applied once, with its multiplicity, in
        order of first occurrence. A key of ``children`` or
        ``next_counts`` is first touched by the earliest position whose
        window touches it, and that window is the first applied to touch
        it, so nodes are created and keys inserted in the order of the
        position-by-position walk. Only a sequence with two or more such
        windows (``len > max_depth + 1``) can repeat one; shorter ones
        walk every position.
        """
        length = len(encoded)
        if length == 0:
            return
        # Validate the whole sequence before touching any count: a
        # mid-insert ValueError must not leave the tree half-mutated
        # (and the caches stale) for a caller that catches it. The
        # ordered loop runs only to name the first bad id.
        if min(encoded) < 0 or max(encoded) >= self.alphabet_size:
            for symbol in encoded:
                if not 0 <= symbol < self.alphabet_size:
                    raise ValueError(
                        f"symbol id {symbol} out of range "
                        f"(alphabet size {self.alphabet_size})"
                    )
        max_depth = self.max_depth
        threshold = self.significance_threshold
        # Labels whose count reached the threshold.
        crossed: list[Sequence[int]] = []
        created = 0
        root = self.root
        root.count += length
        root.next_total += length
        root.log_ratios = None
        root_next = root.next_counts

        # Positions with a short context, or every position when no
        # full-context window can repeat.
        head = max_depth if length > max_depth + 1 else length
        for i in range(head):
            symbol = encoded[i]
            root_next[symbol] = root_next.get(symbol, 0) + 1
            node = root
            lowest = i - max_depth if i > max_depth else 0
            j = i - 1
            while j >= lowest:
                context_symbol = encoded[j]
                child = node.children.get(context_symbol)
                if child is None:
                    child = node.children[context_symbol] = PSTNode()
                    created += 1
                count = child.count = child.count + 1
                if count == threshold:
                    crossed.append(encoded[j:i])
                next_counts = child.next_counts
                next_counts[symbol] = next_counts.get(symbol, 0) + 1
                child.next_total += 1
                child.log_ratios = None
                node = child
                j -= 1

        if head < length:
            # (s_{i-L}, …, s_i) for every i ≥ L, counted in order of
            # first occurrence.
            windows = Counter(
                zip(*[encoded[k : length - max_depth + k] for k in range(max_depth + 1)])
            )
            for window, m in windows.items():
                symbol = window[max_depth]
                root_next[symbol] = root_next.get(symbol, 0) + m
                node = root
                for j in range(max_depth - 1, -1, -1):
                    context_symbol = window[j]
                    child = node.children.get(context_symbol)
                    if child is None:
                        child = node.children[context_symbol] = PSTNode()
                        created += 1
                    old = child.count
                    count = child.count = old + m
                    if old < threshold <= count:
                        crossed.append(window[j:max_depth])
                    next_counts = child.next_counts
                    next_counts[symbol] = next_counts.get(symbol, 0) + m
                    child.next_total += m
                    child.log_ratios = None
                    node = child

        # Terminal contexts: segments ending exactly at the sequence end
        # occur but precede no symbol; count them without next-symbol
        # observations so node counts equal true occurrence counts.
        node = root
        j = length - 1
        lowest = length - max_depth if length > max_depth else 0
        while j >= lowest:
            context_symbol = encoded[j]
            child = node.children.get(context_symbol)
            if child is None:
                child = node.children[context_symbol] = PSTNode()
                created += 1
            count = child.count = child.count + 1
            if count == threshold:
                crossed.append(encoded[j:length])
            node = child
            j -= 1
        self._node_count += created

        if crossed and self._transitions:
            self._forget_transitions(crossed)
        self._sequences_added += 1
        self._invalidate()
        if self.max_nodes is not None and self._node_count > self.max_nodes:
            prune_to(self, self.max_nodes, strategy=self.prune_strategy)

    def merge_counts(self, other: "ProbabilisticSuffixTree") -> int:
        """Fold *other*'s observation counts into this tree, in place.

        The merge is a node-by-node sum over the union of the two
        tries: matching contexts add their ``count`` and
        ``next_counts``; contexts present only in *other* are created
        (up to this tree's ``max_depth``). This generalizes the
        paper's §4.5 overlap-driven consolidation to cluster PSTs that
        were trained on disjoint shards of a stream: merging two trees
        built from sequence sets A and B yields exactly the tree that
        would have been built from A ∪ B (for shared depths), so a
        cross-shard merge is equivalent to having routed both partitions
        to one shard. The post-merge prune keeps the merged model
        parsimonious ("Approximate learning of parsimonious Bayesian
        context trees", PAPERS.md) rather than letting merged tries
        grow without bound.

        Returns the number of nodes created. Deterministic: children
        are visited in sorted symbol order, so repeated merges of the
        same pair produce bit-identical trees.
        """
        if other.alphabet_size != self.alphabet_size:
            raise ValueError(
                f"alphabet size mismatch: {self.alphabet_size} != "
                f"{other.alphabet_size}"
            )
        created = 0
        stack: list[tuple[PSTNode, PSTNode, int]] = [(self.root, other.root, 0)]
        while stack:
            mine, theirs, depth = stack.pop()
            mine.count += theirs.count
            for symbol in sorted(theirs.next_counts):
                mine.next_counts[symbol] = (
                    mine.next_counts.get(symbol, 0) + theirs.next_counts[symbol]
                )
            mine.next_total += theirs.next_total
            mine.log_ratios = None
            if depth >= self.max_depth:
                continue
            # Reverse-sorted push: LIFO pop then visits symbols in
            # ascending order, keeping node-creation order deterministic.
            for symbol in sorted(theirs.children, reverse=True):
                child = mine.children.get(symbol)
                if child is None:
                    child = PSTNode()
                    mine.children[symbol] = child
                    self._node_count += 1
                    created += 1
                stack.append((child, theirs.children[symbol], depth + 1))
        self._sequences_added += other._sequences_added
        self._clear_transitions(still_closed=other._closed)
        self._invalidate()
        if self.max_nodes is not None and self._node_count > self.max_nodes:
            prune_to(self, self.max_nodes, strategy=self.prune_strategy)
        return created

    # -- lookup --------------------------------------------------------------------

    def node_for(self, segment: Sequence[int]) -> PSTNode | None:
        """Exact lookup: the node labelled *segment*, or ``None``.

        The walk consumes *segment* back-to-front because edges prepend
        symbols (reversed-sequence tree).
        """
        node = self.root
        for symbol in reversed(list(segment)):
            node = node.children.get(symbol)
            if node is None:
                return None
        return node

    def count_of(self, segment: Sequence[int]) -> int:
        """Occurrence count of *segment* (0 when absent or too long)."""
        if len(segment) > self.max_depth:
            return 0
        node = self.node_for(segment)
        return node.count if node is not None else 0

    def is_significant(self, segment: Sequence[int]) -> bool:
        """Whether *segment* is a significant segment (count ≥ c)."""
        if len(segment) == 0:
            return True
        return self.count_of(segment) >= self.significance_threshold

    def prediction_node(self, context: Sequence[int]) -> PSTNode:
        """The paper's prediction node of *context*.

        Walks from the root along the reversed context, advancing only
        while the child exists and is significant; the node reached is
        labelled with the longest significant suffix of *context*
        (possibly the root, whose label is the empty segment).
        """
        node = self.root
        threshold = self.significance_threshold
        start = max(0, len(context) - self.max_depth)
        for i in range(len(context) - 1, start - 1, -1):
            child = node.children.get(context[i])
            if child is None or child.count < threshold:
                break
            node = child
        return node

    def longest_significant_suffix(self, context: Sequence[int]) -> tuple[int, ...]:
        """The longest significant suffix of *context* as a tuple of ids."""
        node = self.root
        threshold = self.significance_threshold
        depth = 0
        start = max(0, len(context) - self.max_depth)
        for i in range(len(context) - 1, start - 1, -1):
            child = node.children.get(context[i])
            if child is None or child.count < threshold:
                break
            node = child
            depth += 1
        return tuple(context[len(context) - depth :])

    def probability(self, symbol: int, context: Sequence[int]) -> float:
        """Estimate ``P(symbol | context)`` via the prediction node.

        Applies the adjusted probability estimation (§5.2) when
        ``p_min > 0``. Falls back to the uniform distribution if the
        prediction node has no next-symbol observations at all (an
        empty tree).
        """
        node = self.prediction_node(context)
        total = node.next_total
        if total == 0:
            return 1.0 / self.alphabet_size
        raw = node.next_counts.get(symbol, 0) / total
        return adjust_probability(raw, self.alphabet_size, self.p_min)

    def probability_vector(self, context: Sequence[int]) -> npt.NDArray[np.float64]:
        """The full (smoothed) next-symbol distribution given *context*."""
        node = self.prediction_node(context)
        return self.node_probability_vector(node)

    def node_probability_vector(self, node: PSTNode) -> npt.NDArray[np.float64]:
        """The (smoothed) probability vector stored at *node*."""
        vec = np.zeros(self.alphabet_size, dtype=np.float64)
        total = node.next_total
        if total == 0:
            vec[:] = 1.0 / self.alphabet_size
            return vec
        for symbol, count in node.next_counts.items():
            vec[symbol] = count / total
        if self.p_min > 0.0:
            vec = (1.0 - self.alphabet_size * self.p_min) * vec + self.p_min
        return vec

    # -- mutation version --------------------------------------------------------------

    def _invalidate(self) -> None:
        """Record a mutation: bump the version."""
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter; increments on every change to the tree.

        Anything derived from tree state (the batch scorer's flat
        arrays, a serving model's record of which trees are unchanged)
        is valid exactly as long as the version it was built from still
        matches.
        """
        return self._version

    # -- scoring transitions ---------------------------------------------------------

    def transitions(self) -> tuple[dict[PSTNode, list[PSTNode | None]], bool]:
        """The scorer's transition table and whether the tree is *closed*.

        A tree is closed when ``count(w) ≥ count(w·a)`` for every label
        ``w`` and symbol ``a`` (an absent node counts 0). Exact
        occurrence counts are closed, and so is every tree built by
        :meth:`add_sequence`, :meth:`decay_counts` and merges of closed
        trees. A prediction node is *walkable*: every suffix of its
        label is significant. In a closed tree, if ``w·a`` is walkable
        then so is ``w``, so the prediction node after ``context·a`` is
        the longest walkable suffix of ``label(u)·a``, where ``u`` is
        the prediction node of ``context``: a function of ``u`` and
        ``a``.

        The table maps a node ``u`` to a row of ``alphabet_size``
        entries, each ``None`` or the prediction node after ``a``;
        :func:`repro.core.similarity.similarity` fills entries from its
        root walks. Only :meth:`add_sequence`'s threshold crossings can
        deepen a transition, and they drop the affected entries. A label
        crosses when one update takes its count from below the
        significance threshold to at least it; a repeated window adds
        its multiplicity at once, so the count may pass the threshold
        rather than land on it. :meth:`decay_counts` and
        :meth:`merge_counts` drop the whole table. Pruning, a merge of a tree that is not closed, and
        :meth:`from_dict` of counts that fail the check leave the tree
        not closed for good; the scorer then walks every position and
        stores nothing.
        """
        return self._transitions, self._closed

    def key_ratio_rows(self, log_bg: list[float]) -> None:
        """Key the nodes' ``log_ratios`` rows to the background *log_bg*.

        A row entry is ``log P̂(s | label) − log p(s)``, valid only under
        the ``log p(s)`` it was computed with. The scorer calls this
        before it reads any row: when *log_bg* differs by value from the
        background the rows were filled under, every row is dropped
        first, so a tree scored under backgrounds A, B and A again reads
        each as a cold copy would.
        """
        if log_bg != self._ratio_background:
            if self._ratio_background is not None:
                stack = [self.root]
                while stack:
                    node = stack.pop()
                    node.log_ratios = None
                    stack.extend(node.children.values())
            self._ratio_background = list(log_bg)

    def _clear_transitions(self, still_closed: bool = True) -> None:
        """Drop the whole transition table; ``still_closed=False`` also
        marks the tree as not closed, so nothing is cached again."""
        self._transitions.clear()
        self._closed = self._closed and still_closed

    def _forget_transitions(self, crossed: list[Sequence[int]]) -> None:
        """Drop the entries a newly significant label can deepen.

        For each label ``w = v·a`` in *crossed* that reached the
        threshold, only the transitions on ``a`` out of nodes whose
        label ends with ``v`` — the subtree of ``v`` — can now reach
        ``w`` or a label extending it. Rows belong to prediction nodes,
        whose every ancestor was significant when the row was made, and
        counts only grow while the table lives, so the walk skips
        insignificant subtrees.
        """
        table = self._transitions
        threshold = self.significance_threshold
        for label in crossed:
            symbol = label[-1]
            # v occurs in the inserted sequence, so its node exists.
            node = self.root
            for k in range(len(label) - 2, -1, -1):
                node = node.children[label[k]]
            stack = [node]
            while stack:
                node = stack.pop()
                row = table.get(node)
                if row is not None:
                    row[symbol] = None
                stack.extend(
                    [c for c in node.children.values() if c.count >= threshold]
                )

    def _counts_closed(self) -> bool:
        """Whether ``count(w) ≥ count(w·a)`` holds for every node ``w·a``.

        Walks each node beside the node of its label minus the last
        symbol: that of child ``x·u`` is child ``x`` of ``u``'s, so the
        check is ``O(nodes)``. A missing one counts 0.
        """
        absent = PSTNode()
        stack = [(child, self.root) for child in self.root.children.values()]
        while stack:
            node, prefix = stack.pop()
            if prefix.count < node.count:
                return False
            for symbol, child in node.children.items():
                stack.append((child, prefix.children.get(symbol, absent)))
        return True

    # -- traversal / stats -----------------------------------------------------------

    def iter_nodes(self) -> Iterator[tuple[tuple[int, ...], PSTNode]]:
        """Depth-first iteration over ``(label, node)`` pairs.

        Labels are in original (unreversed) orientation; the root has
        the empty label.
        """
        stack: list[tuple[tuple[int, ...], PSTNode]] = [((), self.root)]
        while stack:
            label, node = stack.pop()
            yield label, node
            for symbol, child in node.children.items():
                stack.append(((symbol,) + label, child))

    def walkable_nodes(self) -> Iterator[tuple[tuple[int, ...], PSTNode]]:
        """Breadth-first ``(label, node)`` pairs over significant children.

        These are the nodes :meth:`prediction_node` can return: the root
        and every node reached from it through children with count ≥
        the significance threshold. Parents come before their children,
        and siblings in ``children`` order.
        """
        threshold = self.significance_threshold
        level: list[tuple[tuple[int, ...], PSTNode]] = [((), self.root)]
        while level:
            yield from level
            level = [
                ((symbol,) + label, child)
                for label, node in level
                for symbol, child in node.children.items()
                if child.count >= threshold
            ]

    @property
    def node_count(self) -> int:
        """Total number of nodes, root included."""
        return self._node_count

    @property
    def sequences_added(self) -> int:
        """How many sequences/segments have been inserted."""
        return self._sequences_added

    @property
    def total_symbols(self) -> int:
        """Sum of inserted sequence lengths (the root count)."""
        return self.root.count

    def significant_node_count(self) -> int:
        """Number of nodes with count ≥ the significance threshold."""
        threshold = self.significance_threshold
        return sum(1 for _, node in self.iter_nodes() if node.count >= threshold)

    def depth(self) -> int:
        """Length of the longest label currently in the tree."""
        best = 0
        for label, _ in self.iter_nodes():
            if len(label) > best:
                best = len(label)
        return best

    def approx_memory_bytes(self) -> int:
        """Rough memory footprint, for the PST-size experiments."""
        return self._node_count * APPROX_BYTES_PER_NODE

    def stats(self) -> PSTStats:
        """Structural summary (node count, depths, occurrence mass).

        One depth-first walk, so ``O(nodes)``; suitable for
        per-iteration telemetry but not per-symbol hot loops.
        """
        threshold = self.significance_threshold
        node_count = 0
        significant = 0
        mass = 0
        depth_counts: list[int] = []
        stack: list[tuple[PSTNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            node_count += 1
            mass += node.count
            if node.count >= threshold:
                significant += 1
            while len(depth_counts) <= depth:
                depth_counts.append(0)
            depth_counts[depth] += 1
            for child in node.children.values():
                stack.append((child, depth + 1))
        return PSTStats(
            node_count=node_count,
            significant_nodes=significant,
            max_depth=len(depth_counts) - 1,
            depth_histogram=tuple(depth_counts),
            total_occurrence_mass=mass,
            sequences_added=self._sequences_added,
            total_symbols=self.root.count,
            approx_memory_bytes=node_count * APPROX_BYTES_PER_NODE,
        )

    def __repr__(self) -> str:
        return (
            f"ProbabilisticSuffixTree(nodes={self._node_count}, "
            f"depth≤{self.max_depth}, c={self.significance_threshold}, "
            f"sequences={self._sequences_added}, "
            f"symbols={self.total_symbols})"
        )

    # -- maintenance -------------------------------------------------------------------

    def decay_counts(self, factor: float, min_count: int = 1) -> int:
        """Exponentially decay every count in the tree (streaming drift).

        Multiplies each node's occurrence count — and its next-symbol
        counters — by *factor* (``0 < factor ≤ 1``), flooring to
        integers, then discards any subtree whose root count falls
        below *min_count* via :meth:`_forget_subtree`. Flooring
        preserves the suffix-trie invariant ``child.count ≤
        parent.count`` (a longer label never occurs more often than
        its suffix), so discarded nodes always take their entire
        subtree with them and the tree stays structurally consistent.

        This is the streaming counterpart of the paper's §5.1 pruning:
        instead of forgetting under a *memory* budget, the model
        forgets under a *time* budget, so cluster PSTs track concept
        drift instead of fossilizing around historical counts.
        Repeated decay with no intervening insertions can only shrink
        the significant-node set (counts are non-increasing under
        flooring), never grow it.

        Returns the number of nodes removed. ``factor >= 1`` is a
        no-op returning 0; probability vectors remain normalized
        because they are re-derived from the scaled counts.
        """
        if factor <= 0.0 or factor > 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        if min_count < 1:
            raise ValueError("min_count must be at least 1")
        if factor >= 1.0:
            return 0
        self._invalidate()
        self._clear_transitions()

        def scale(value: int) -> int:
            return int(value * factor)

        removed = 0
        root = self.root
        root.count = scale(root.count)
        stack = [root]
        while stack:
            node = stack.pop()
            total = 0
            for symbol, counts in list(node.next_counts.items()):
                scaled = scale(counts)
                if scaled <= 0:
                    del node.next_counts[symbol]
                else:
                    node.next_counts[symbol] = scaled
                    total += scaled
            node.next_total = total
            node.log_ratios = None
            for symbol in list(node.children):
                child = node.children[symbol]
                new_count = scale(child.count)
                if new_count < min_count:
                    removed += self._forget_subtree(node, symbol)
                    continue
                child.count = new_count
                stack.append(child)
        return removed

    def _forget_subtree(self, parent: PSTNode, symbol: int) -> int:
        """Detach and discount the child subtree at ``parent.children[symbol]``.

        Returns the number of nodes removed. Used by the pruning
        strategies; counts stored elsewhere in the tree are untouched
        (pruning loses information, it does not rescale it).
        """
        if symbol not in parent.children:
            return 0
        self._invalidate()
        child = parent.children.pop(symbol)
        removed = child.subtree_size()
        self._node_count -= removed
        return removed

    def recount_nodes(self) -> int:
        """Recompute the cached node count from the tree (debug aid).

        Deliberately does not bump ``_version``: no version-keyed cache
        reads ``_node_count``, and recounting changes no count those
        caches are built from — it only repairs the bookkeeping gauge.
        """
        self._node_count = self.root.subtree_size()  # cluseq: ignore[CLQ007]
        return self._node_count

    # -- sampling ----------------------------------------------------------------------

    def sample(
        self, length: int, rng: np.random.Generator | None = None
    ) -> list[int]:
        """Generate a sequence of *length* symbols from this PST.

        Sampling follows exactly the prediction procedure used for
        scoring, so a cluster's PST can act as its generative model
        (how the paper builds its synthetic workloads). Deterministic
        when *rng* is omitted: a fixed seed-0 generator is created per
        call.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        if rng is None:
            rng = np.random.default_rng(0)
        out: list[int] = []
        ids = np.arange(self.alphabet_size)
        for _ in range(length):
            vec = self.probability_vector(out[-self.max_depth :])
            total = vec.sum()
            if total <= 0:  # pragma: no cover - defensive
                vec = np.full(self.alphabet_size, 1.0 / self.alphabet_size)
            else:
                vec = vec / total
            out.append(int(rng.choice(ids, p=vec)))
        return out

    # -- serialization -------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable snapshot of the tree."""

        def encode(node: PSTNode) -> dict[str, Any]:
            return {
                "count": node.count,
                "next": {str(s): c for s, c in node.next_counts.items()},
                "children": {
                    str(s): encode(child) for s, child in node.children.items()
                },
            }

        return {
            "alphabet_size": self.alphabet_size,
            "max_depth": self.max_depth,
            "significance_threshold": self.significance_threshold,
            "p_min": self.p_min,
            "max_nodes": self.max_nodes,
            "prune_strategy": self.prune_strategy,
            "sequences_added": self._sequences_added,
            "root": encode(self.root),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProbabilisticSuffixTree":
        """Rebuild a tree from :meth:`to_dict` output.

        Raises ``ValueError`` on a symbol id outside the alphabet or a
        count that is not a non-negative integer (see
        :func:`_decode_nodes`): such a tree would otherwise load, and the
        batch kernel and the DP would read it differently.
        """
        pst = cls(
            alphabet_size=data["alphabet_size"],
            max_depth=data["max_depth"],
            significance_threshold=data["significance_threshold"],
            p_min=data.get("p_min", 0.0),
            max_nodes=data.get("max_nodes"),
            prune_strategy=data.get("prune_strategy", "paper"),
        )
        pst.root, pst._node_count = _decode_nodes(data["root"], pst.alphabet_size)
        pst._sequences_added = data.get("sequences_added", 0)
        pst._closed = pst._counts_closed()
        pst._invalidate()
        return pst


def _decode_nodes(
    root_payload: dict[str, Any], alphabet_size: int
) -> tuple[PSTNode, int]:
    """Build the nodes of a ``to_dict`` ``root`` payload in one walk.

    Returns the root and the node count. ``children`` and
    ``next_counts`` keep the payload's key order. Raises ``ValueError``
    on a ``next`` or ``children`` key that is not a symbol id in
    ``[0, alphabet_size)`` written as ``to_dict`` writes it, and on a
    count that is not a non-negative integer.
    """
    ids = {str(s): s for s in range(alphabet_size)}

    def bad_id(key: str) -> ValueError:
        return ValueError(f"symbol id {key!r} is not in [0, {alphabet_size})")

    def bad_count(value: Any) -> ValueError:
        return ValueError(f"count {value!r} is not a non-negative integer")

    root = PSTNode()
    stack = [(root, root_payload)]
    nodes = 0
    while stack:
        node, payload = stack.pop()
        nodes += 1
        count = node.count = payload["count"]
        if type(count) is not int or count < 0:
            raise bad_count(count)
        next_payload = payload["next"]
        try:
            next_counts = {ids[s]: c for s, c in next_payload.items()}
        except KeyError as exc:
            raise bad_id(exc.args[0]) from None
        for value in next_counts.values():
            if type(value) is not int or value < 0:
                raise bad_count(value)
        node.next_counts = next_counts
        node.next_total = sum(next_counts.values())
        for s, child_payload in payload["children"].items():
            symbol = ids.get(s)
            if symbol is None:
                raise bad_id(s)
            child = node.children[symbol] = PSTNode()
            stack.append((child, child_payload))
    return root, nodes
