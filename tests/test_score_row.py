"""The incremental scoring row agrees with the public scorers.

``score_row(psts, encoded, log_bg)`` is one sequence against many
trees, unchecked, over a log background built once. It must equal
``similarities()`` entry for entry (``log SIM``, ``best_start``,
``best_end``) and each tree's ``pass_totals`` entry, on closed trees, on
a pruned tree (not closed, walked at every position) and with ``p_min``
both 0 and positive, and it must record the same ``similarity.*``
telemetry as ``similarities()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pruning import prune_to
from repro.core.pst import ProbabilisticSuffixTree
from repro.core.similarity import (
    _count_pairs,
    log_background,
    pass_totals,
    score_row,
    similarities,
)
from repro.obs import MetricsRegistry, use_registry
from repro.obs.metrics import Histogram

ALPHABET = 4
COUNTERS = ("similarity.calls", "similarity.dp_cells", "similarity.context_walks")


def random_trees(seed, p_min):
    """Three closed trees and one pruned (not closed) tree, all built
    from the same seeded draws, so two calls give equal trees."""
    rng = np.random.default_rng(seed)
    trees = []
    for depth in (2, 3, 4):
        pst = ProbabilisticSuffixTree(
            alphabet_size=ALPHABET, max_depth=depth, significance_threshold=2,
            p_min=p_min,
        )
        for _ in range(4):
            pst.add_sequence([int(s) for s in rng.integers(0, ALPHABET, size=40)])
        trees.append(pst)
    pruned = ProbabilisticSuffixTree(
        alphabet_size=ALPHABET, max_depth=4, significance_threshold=2, p_min=p_min
    )
    for _ in range(4):
        pruned.add_sequence([int(s) for s in rng.integers(0, ALPHABET, size=40)])
    assert prune_to(pruned, pruned.node_count // 2) > 0
    assert not pruned.transitions()[1]
    trees.append(pruned)
    assert all(pst.transitions()[1] for pst in trees[:-1])
    return trees


def sequences(seed):
    rng = np.random.default_rng(seed + 100)
    return [
        [int(s) for s in rng.integers(0, ALPHABET, size=int(length))]
        for length in rng.integers(1, 50, size=12)
    ]


BACKGROUND = np.array([0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize("p_min", [0.0, 0.02], ids=["p_min-0", "p_min-positive"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_equals_similarities_and_columns(seed, p_min):
    log_bg = log_background(BACKGROUND)
    seqs = sequences(seed)
    # Each scorer gets its own equal trees, so no cache one fills is
    # read by another.
    row_trees = random_trees(seed, p_min)
    public_trees = random_trees(seed, p_min)
    column_trees = random_trees(seed, p_min)
    columns = [pass_totals(pst, seqs, log_bg)[:2] for pst in column_trees]
    for position, seq in enumerate(seqs):
        logs, bounds = score_row(row_trees, seq, log_bg)
        results = similarities(public_trees, seq, BACKGROUND)
        assert logs == [result.log_similarity for result in results]
        assert bounds == [
            bound for result in results for bound in (result.best_start, result.best_end)
        ]
        assert logs == [column_logs[position] for column_logs, _ in columns]
        assert bounds == [
            column_bounds[2 * position + k]
            for _, column_bounds in columns
            for k in (0, 1)
        ]


def test_zero_tree_row_is_empty():
    registry = MetricsRegistry()
    with use_registry(registry):
        assert score_row([], [0, 1, 2], log_background(BACKGROUND)) == ([], [])
    assert registry.get("similarity.calls") is None


@pytest.mark.parametrize("p_min", [0.0, 0.02], ids=["p_min-0", "p_min-positive"])
def test_row_telemetry_equals_similarities(p_min):
    log_bg = log_background(BACKGROUND)
    seqs = sequences(5)
    by_row, by_public = MetricsRegistry(), MetricsRegistry()
    row_trees, public_trees = random_trees(5, p_min), random_trees(5, p_min)
    with use_registry(by_row):
        for seq in seqs:
            score_row(row_trees, seq, log_bg)
    with use_registry(by_public):
        for seq in seqs:
            similarities(public_trees, seq, BACKGROUND)
    for name in COUNTERS:
        assert by_row.counter(name).value == by_public.counter(name).value
    assert by_row.counter("similarity.calls").value == len(seqs) * len(row_trees)
    assert (
        by_row.histogram("similarity.segment_length").to_dict()
        == by_public.histogram("similarity.segment_length").to_dict()
    )


def test_binned_histogram_equals_per_pair_observe():
    """Each scoring call bins its segment lengths and merges them once;
    the histogram must read as if every pair had been observed."""
    log_bg = log_background(BACKGROUND)
    seqs = sequences(7)
    trees = random_trees(7, 0.0)
    registry = MetricsRegistry()
    lengths = []
    with use_registry(registry):
        for seq in seqs:
            _, bounds = score_row(trees, seq, log_bg)
            lengths += [bounds[at + 1] - bounds[at] for at in range(0, len(bounds), 2)]
        for pst in random_trees(7, 0.0):
            _, bounds, cells, walks = pass_totals(pst, seqs, log_bg)
            _count_pairs(cells, walks, bounds)
            lengths += [bounds[at + 1] - bounds[at] for at in range(0, len(bounds), 2)]
    merged = registry.histogram("similarity.segment_length")
    reference = Histogram()
    for length in lengths:
        reference.observe(length)
    assert len(set(lengths)) > 3
    assert merged.bucket_counts == reference.bucket_counts
    assert (merged.count, merged.total, merged.min, merged.max) == (
        reference.count, reference.total, reference.min, reference.max
    )
    assert merged.to_dict() == reference.to_dict()
