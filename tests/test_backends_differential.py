"""Differential fuzz: the vectorized backend against the reference SIM.

Every property runs over the same pool of ``N_CASES`` seeded random
(tree, background, sequences) scenarios — random alphabet sizes, tree
depths, significance thresholds, smoothing settings, and (for a third
of the cases) trees that have been decayed mid-life — extended by
``N_EXTRA`` merged trees and ``N_EXTRA`` depth-6 trees (the serve
model's depth), plus a handful of handcrafted edge scenarios
(single-symbol sequences, sequences made entirely of symbols the tree
has never observed).

The contract under test is stronger than the usual "within 1e-9": the
vectorized backend is designed to be *bit-identical* to the reference
(see the ``repro.core.backends.flatten`` module docstring), so the assertions demand
exact float equality for scores and exact integer equality for segment
bounds, and separately document the 1e-9 bound the public contract
promises.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import similarity_bruteforce
from repro.core.backends import (
    PstBatchScorer,
    flatten_pst,
    kadane_columns,
    pad_sequences,
    prepare_stack,
    walk_states_matrix,
)
from repro.core.pst import ProbabilisticSuffixTree
from repro.core.similarity import (
    log_background,
    similarities,
    similarity,
)
from repro.core.smoothing import default_p_min
from repro.obs import MetricsRegistry, use_registry

#: Seeded fuzz cases per property.
N_CASES = 220
#: Extra scenarios of each widened kind: merged trees, depth-6 trees.
N_EXTRA = 40


def _random_scenario(seed: int, max_depth: int | None = None):
    """One random (pst, background, sequences) scenario.

    *max_depth* overrides the drawn depth; the draw is made either way,
    so a seed's other parameters do not depend on the override.
    """
    rng = np.random.default_rng(seed)
    alphabet_size = int(rng.integers(2, 11))
    drawn_depth = int(rng.integers(1, 6))
    max_depth = drawn_depth if max_depth is None else max_depth
    significance = int(rng.integers(1, 5))
    smoothing_mode = int(rng.integers(0, 3))
    if smoothing_mode == 0:
        p_min = 0.0
    elif smoothing_mode == 1:
        p_min = default_p_min(alphabet_size)
    else:
        p_min = float(rng.uniform(0.0, 0.5 / alphabet_size))
    pst = ProbabilisticSuffixTree(
        alphabet_size=alphabet_size,
        max_depth=max_depth,
        significance_threshold=significance,
        p_min=p_min,
    )
    # Train on a biased source so the tree has real structure: some
    # symbols common, some rare, some possibly never observed.
    weights = rng.random(alphabet_size) ** 2 + 1e-3
    weights /= weights.sum()
    for _ in range(int(rng.integers(3, 11))):
        length = int(rng.integers(5, 31))
        pst.add_sequence([int(s) for s in rng.choice(alphabet_size, size=length, p=weights)])
    if seed % 3 == 0:
        # A third of the cases run against a decayed tree, as the
        # streaming engine produces.
        pst.decay_counts(float(rng.uniform(0.4, 0.95)))
    background = rng.random(alphabet_size) + 1e-3
    background /= background.sum()
    sequences = []
    for _ in range(int(rng.integers(1, 5))):
        length = int(rng.integers(1, 41))
        sequences.append(
            [int(s) for s in rng.integers(0, alphabet_size, size=length)]
        )
    return pst, background, sequences


def _merged_scenario(seed: int):
    """A scenario whose tree is ``merge_counts`` of two closed trees.

    The second tree shares the first's parameters and trains on its
    own biased source, as a cross-shard consolidation merges them.
    """
    pst, background, sequences = _random_scenario(seed)
    rng = np.random.default_rng(seed + 1)
    other = ProbabilisticSuffixTree(
        alphabet_size=pst.alphabet_size,
        max_depth=pst.max_depth,
        significance_threshold=pst.significance_threshold,
        p_min=pst.p_min,
    )
    weights = rng.random(pst.alphabet_size) ** 2 + 1e-3
    weights /= weights.sum()
    for _ in range(int(rng.integers(3, 11))):
        length = int(rng.integers(5, 31))
        other.add_sequence(
            [int(s) for s in rng.choice(pst.alphabet_size, size=length, p=weights)]
        )
    pst.merge_counts(other)
    assert pst.transitions()[1]
    return pst, background, sequences


@pytest.fixture(scope="module")
def scenarios():
    # The first N_CASES are the original draws; the widened kinds are
    # appended after them, from seeds of their own.
    return (
        [_random_scenario(1000 + i) for i in range(N_CASES)]
        + [_merged_scenario(3000 + 2 * i) for i in range(N_EXTRA)]
        + [_random_scenario(4000 + i, max_depth=6) for i in range(N_EXTRA)]
    )


def _assert_results_equal(got, want, context: str) -> None:
    # Bit-identical by design; the public contract only promises 1e-9.
    assert got.log_similarity == want.log_similarity, context
    assert abs(got.log_similarity - want.log_similarity) <= 1e-9, context
    assert got.best_start == want.best_start, context
    assert got.best_end == want.best_end, context


def _assert_matrix_equals_similarities(matrix, psts, sequences, background, context):
    """Every (tree, sequence) cell of *matrix* is that pair's DP result."""
    assert matrix.log_z.shape == (len(psts), len(sequences)), context
    for column, seq in enumerate(sequences):
        for tree, want in enumerate(similarities(psts, seq, background)):
            _assert_results_equal(
                matrix.result(tree, column), want, f"{context}: tree {tree}"
            )


class TestSimilarityAgreesWithReference:
    def test_scores_bounds_and_whole_log_match(self, scenarios):
        for case, (pst, background, sequences) in enumerate(scenarios):
            scorer = PstBatchScorer(background, [pst])
            matrix = scorer.score_matrix_full(sequences)
            for column, seq in enumerate(sequences):
                got = matrix.result(0, column)
                want = similarity(pst, seq, background)
                _assert_results_equal(got, want, f"case {case} seq {seq!r}")

    def test_one_vs_many_matches_per_tree_reference(self, scenarios):
        # Pair each scenario's sequence with several trees (its own plus
        # neighbours of the same alphabet size) to exercise stacking.
        by_alphabet: dict[int, list] = {}
        for pst, background, sequences in scenarios:
            by_alphabet.setdefault(pst.alphabet_size, []).append(
                (pst, background, sequences)
            )
        checked = 0
        for group in by_alphabet.values():
            psts = [pst for pst, _, _ in group]
            background = group[0][1]
            scorer = PstBatchScorer(background, psts)
            seq = group[0][2][0]
            matrix = scorer.score_matrix_full([seq])
            for tree, pst in enumerate(psts):
                got = matrix.result(tree, 0)
                want = similarity(pst, seq, background)
                _assert_results_equal(got, want, f"alphabet {pst.alphabet_size}")
                checked += 1
        assert checked >= N_CASES


class TestBruteforceAgreement:
    def test_vectorized_matches_bruteforce_segments(self, scenarios):
        for case, (pst, background, sequences) in enumerate(scenarios):
            scorer = PstBatchScorer(background, [pst])
            seq = min(sequences, key=len)  # O(l²) oracle: keep it short
            got = scorer.score_matrix_full([seq]).result(0, 0)
            brute_log, (brute_start, brute_end) = similarity_bruteforce(
                pst, seq, background
            )
            assert abs(got.log_similarity - brute_log) <= 1e-9, f"case {case}"
            assert (got.best_start, got.best_end) == (brute_start, brute_end), (
                f"case {case}"
            )


class TestSuffixSelection:
    def test_walk_states_selects_longest_significant_suffix(self, scenarios):
        """The batched walk lands on the reference's prediction node.

        Checked structurally: at every position the flat row's label
        (rows are ``walkable_nodes()`` in order) must have the length
        of ``longest_significant_suffix`` of the position's context,
        and must be that suffix.
        """
        for case, (pst, background, sequences) in enumerate(scenarios):
            flat = flatten_pst(pst)
            labels = [label for label, _ in pst.walkable_nodes()]
            assert len(labels) == flat.node_count
            prep = prepare_stack([flat], np.asarray(log_background(background)))
            symbols, _ = pad_sequences(sequences, pst.alphabet_size)
            # (width, trees, sequences): position leads, one tree here.
            states = walk_states_matrix(prep, symbols)
            for row, seq in enumerate(sequences):
                for i in range(len(seq)):
                    suffix = pst.longest_significant_suffix(seq[:i])
                    label = labels[int(states[i, 0, row])]
                    assert len(label) == len(suffix), (
                        f"case {case} row {row} pos {i}"
                    )
                    assert label == tuple(suffix), (
                        f"case {case} row {row} pos {i}"
                    )


class TestEdgeCases:
    def test_background_of_another_alphabet_raises(self):
        pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=2)
        pst.add_sequence([0, 1, 2, 3])
        with pytest.raises(ValueError, match="background must have length 4"):
            PstBatchScorer(np.full(3, 1.0 / 3.0), [pst])

    @staticmethod
    def _scorer(background, pst, path):
        """A scorer over *pst* that takes it with the kernel, or with
        the DP once an ingest has written it after the build."""
        scorer = PstBatchScorer(background, [pst])
        if path == "dp":
            pst.add_sequence([0, 1])
        return scorer

    @pytest.mark.parametrize("path", ["kernel", "dp"])
    def test_empty_sequence_raises_like_reference(self, path):
        pst = ProbabilisticSuffixTree(alphabet_size=4, max_depth=3)
        pst.add_sequence([0, 1, 2, 3])
        background = np.full(4, 0.25)
        scorer = self._scorer(background, pst, path)
        with pytest.raises(ValueError, match="empty sequence"):
            similarity(pst, [], background)
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(ValueError, match="empty sequence"):
                scorer.score_matrix_full([[0, 1], []])
            with pytest.raises(ValueError, match="empty sequence"):
                scorer.score_matrix_full([[]])
        # Checked before any row: nothing was scored.
        assert registry.counter("similarity.calls").value == 0
        assert registry.counter("backend.batch_calls").value == 0

    @pytest.mark.parametrize("path", ["kernel", "dp"])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_raises_like_reference(self, bad, path):
        pst = ProbabilisticSuffixTree(alphabet_size=3, max_depth=3)
        pst.add_sequence([0, 1, 2, 0, 1, 2])
        background = np.full(3, 1.0 / 3.0)
        sequence = [0, 1, bad, 2]
        message = rf"symbol id {bad} out of range \(alphabet size 3\)"
        with pytest.raises(ValueError, match=message):
            similarity(pst, sequence, background)
        scorer = self._scorer(background, pst, path)
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(ValueError, match=message):
                scorer.score_matrix_full([[0, 1], sequence])
        # Checked before the stack: nothing was flattened, stacked or
        # scored.
        assert registry.counter("backend.flatten_builds").value == 0
        assert registry.counter("backend.stack_rebuilds").value == 0
        assert registry.counter("similarity.calls").value == 0

    def test_tree_that_is_not_closed_raises_and_flattens_nothing(self):
        from repro.core.pruning import prune_to

        rng = np.random.default_rng(17)
        pruned = ProbabilisticSuffixTree(
            alphabet_size=4, max_depth=4, significance_threshold=2
        )
        for _ in range(6):
            pruned.add_sequence([int(s) for s in rng.integers(0, 4, size=30)])
        closed = ProbabilisticSuffixTree.from_dict(pruned.to_dict())
        assert prune_to(pruned, pruned.node_count // 2) > 0
        # count(w) < count(w·a) for w = [0] and a = 1: not closed.
        unclosed = ProbabilisticSuffixTree.from_dict(
            {
                "alphabet_size": 2,
                "max_depth": 2,
                "significance_threshold": 1,
                "root": {
                    "count": 4,
                    "next": {"0": 2, "1": 2},
                    "children": {
                        "0": {"count": 1, "next": {"1": 1}, "children": {}},
                        "1": {
                            "count": 2,
                            "next": {"0": 1},
                            "children": {
                                "0": {"count": 2, "next": {}, "children": {}}
                            },
                        },
                    },
                },
            }
        )
        for tree, background in (
            (pruned, np.full(4, 0.25)),
            (unclosed, np.full(2, 0.5)),
        ):
            assert not tree.transitions()[1]
            # No export of a tree that is not closed: its automaton
            # would be wrong.
            with pytest.raises(ValueError, match="closed trees only"):
                flatten_pst(tree)
            # The scorer keeps it off the kernel: the DP scores it,
            # nothing is flattened.
            scorer = PstBatchScorer(background, [tree])
            registry = MetricsRegistry()
            with use_registry(registry):
                matrix = scorer.score_matrix_full([[0, 1, 0]])
            _assert_matrix_equals_similarities(
                matrix, [tree], [[0, 1, 0]], background, "not closed"
            )
            assert registry.counter("backend.flatten_builds").value == 0
            assert registry.counter("backend.batch_rows").value == 0
        # Beside a closed tree, only the closed one goes to the kernel.
        background = np.full(4, 0.25)
        scorer = PstBatchScorer(background, [closed, pruned])
        registry = MetricsRegistry()
        with use_registry(registry):
            matrix = scorer.score_matrix_full([[0, 1, 0]])
        assert registry.counter("backend.flatten_builds").value == 1
        assert registry.counter("backend.batch_rows").value == 1
        _assert_matrix_equals_similarities(
            matrix, [closed, pruned], [[0, 1, 0]], background, "closed beside pruned"
        )

    def test_single_symbol_sequences(self):
        for seed in range(N_CASES):
            pst, background, _ = _random_scenario(5000 + seed)
            scorer = PstBatchScorer(background, [pst])
            seq = [seed % pst.alphabet_size]
            got = scorer.score_matrix_full([seq]).result(0, 0)
            want = similarity(pst, seq, background)
            _assert_results_equal(got, want, f"seed {seed}")
            assert (got.best_start, got.best_end) == (0, 1)

    def test_all_unseen_symbols(self):
        """Sequences over symbols the tree never observed.

        The reference gives such positions the unsmoothed uniform
        fallback (or the smoothed estimate of an observed-but-skewed
        node); the vectorized path must reproduce that exactly,
        including the ``_LOG_ZERO`` convention when smoothing is off
        and the node has observations that exclude the symbol.
        """
        for seed in range(N_CASES):
            rng = np.random.default_rng(9000 + seed)
            alphabet_size = int(rng.integers(4, 9))
            unseen = alphabet_size - 1
            pst = ProbabilisticSuffixTree(
                alphabet_size=alphabet_size,
                max_depth=int(rng.integers(1, 5)),
                significance_threshold=int(rng.integers(1, 4)),
                p_min=0.0 if seed % 2 == 0 else default_p_min(alphabet_size),
            )
            for _ in range(4):
                length = int(rng.integers(5, 20))
                pst.add_sequence(
                    [int(s) for s in rng.integers(0, unseen, size=length)]
                )
            background = np.full(alphabet_size, 1.0 / alphabet_size)
            scorer = PstBatchScorer(background, [pst])
            seq = [unseen] * int(rng.integers(1, 12))
            got = scorer.score_matrix_full([seq]).result(0, 0)
            want = similarity(pst, seq, background)
            _assert_results_equal(got, want, f"seed {seed}")

    def test_mutation_invalidates_flat_export(self):
        """A written tree leaves the kernel and is never scored stale; a
        scorer built after the write flattens it afresh, exactly."""
        pst = ProbabilisticSuffixTree(alphabet_size=3, max_depth=3)
        pst.add_sequence([0, 1, 2, 0, 1, 2])
        background = np.full(3, 1.0 / 3.0)
        scorer = PstBatchScorer(background, [pst])
        seq = [0, 1, 2, 0]
        registry = MetricsRegistry()
        with use_registry(registry):
            before = scorer.score_matrix_full([seq])
            _assert_matrix_equals_similarities(
                before, [pst], [seq], background, "pre-mutation"
            )
            for write, label in (
                (lambda: pst.add_sequence([2, 1, 0, 2, 1, 0]), "post add_sequence"),
                (lambda: pst.decay_counts(0.5), "post decay_counts"),
            ):
                write()
                kernel_pairs = registry.counter("backend.batch_rows").value
                written = scorer.score_matrix_full([seq])
                # The DP scored the written tree: no kernel pair.
                assert registry.counter("backend.batch_rows").value == kernel_pairs
                _assert_matrix_equals_similarities(
                    written, [pst], [seq], background, f"{label}, old scorer"
                )
                fresh = PstBatchScorer(background, [pst])
                after = fresh.score_matrix_full([seq])
                _assert_matrix_equals_similarities(
                    after, [pst], [seq], background, label
                )
        # One flatten per scorer, none for the written tree's old rows.
        assert registry.counter("backend.flatten_builds").value == 3
        assert registry.counter("backend.stack_rebuilds").value == 3

    def test_written_tree_leaves_rows_restack_reuses_flats(self):
        """Kernel trees only shrink; a restack reuses the survivors' flats."""
        psts = [
            ProbabilisticSuffixTree.from_sequences(
                [[s, (s + 1) % 3, (s + 2) % 3] * 3],
                alphabet_size=3,
                max_depth=3,
                significance_threshold=1,
            )
            for s in range(3)
        ]
        background = np.full(3, 1.0 / 3.0)
        scorer = PstBatchScorer(background, psts)
        seq = [0, 1, 2, 0]
        registry = MetricsRegistry()
        with use_registry(registry):
            scorer.score_matrix_full([seq])
            assert registry.counter("backend.batch_rows").value == 3
            builds = registry.counter("backend.flatten_builds").value
            assert builds == 3
            scorer.score_matrix_full([seq])
            assert registry.counter("backend.stack_rebuilds").value == 1
            psts[1].add_sequence([2, 2, 1, 0])
            matrix = scorer.score_matrix_full([seq])
            # Trees 0 and 2 on the kernel, tree 1 on the DP.
            assert registry.counter("backend.batch_rows").value == 3 + 3 + 2
            assert registry.counter("backend.flatten_builds").value == builds
            assert registry.counter("backend.stack_rebuilds").value == 2
            scorer.score_matrix_full([seq])
            assert registry.counter("backend.stack_rebuilds").value == 2
        _assert_matrix_equals_similarities(
            matrix, psts, [seq], background, "one tree written"
        )


def _scalar_scan(values: list[float]) -> tuple[float, int, int]:
    """The reference's X/Y/Z loop over one row of log ratios: the oracle
    of the column scan. Returns ``(log_z, best_start, best_end)``."""
    log_y = log_z = values[0]
    y_start = best_start = 0
    best_end = 1
    for i in range(1, len(values)):
        x = values[i]
        if log_y + x >= x:
            log_y += x
        else:
            log_y = x
            y_start = i
        if log_y > log_z:
            log_z = log_y
            best_start, best_end = y_start, i + 1
    return log_z, best_start, best_end


class TestMatrixKernelAgreement:
    """The full-matrix pipeline against the per-pair reference.

    ``PstBatchScorer.score_matrix_full`` walks a column-major ``(width, trees,
    sequences)`` cube and runs one batched Kadane scan over all
    tree×sequence columns at once; these properties pin that pipeline
    — including the automaton walk and the post-hoc segment
    reconstruction — to the reference scorer and to the reference's
    scalar X/Y/Z loop.
    """

    @staticmethod
    def _grouped(scenarios):
        by_alphabet: dict[int, list] = {}
        for pst, background, sequences in scenarios:
            by_alphabet.setdefault(pst.alphabet_size, []).append(
                (pst, background, sequences)
            )
        return by_alphabet

    def test_score_matrix_full_matches_reference(self, scenarios):
        """Every matrix cell equals ``similarity`` — ragged batch."""
        checked = 0
        for group in self._grouped(scenarios).values():
            psts = [pst for pst, _, _ in group[:6]]
            background = group[0][1]
            # Ragged on purpose: pool sequences from several scenarios
            # so lengths differ within one padded block.
            sequences = [seq for _, _, seqs in group[:3] for seq in seqs]
            scorer = PstBatchScorer(background, psts)
            matrix = scorer.score_matrix_full(sequences)
            assert matrix.log_z.shape == (len(psts), len(sequences))
            for t, pst in enumerate(psts):
                for c, seq in enumerate(sequences):
                    got = matrix.result(t, c)
                    want = similarity(pst, seq, background)
                    _assert_results_equal(
                        got, want, f"alphabet {pst.alphabet_size} cell {t},{c}"
                    )
                    checked += 1
        assert checked >= N_CASES

    def test_kadane_columns_matches_row_scans(self):
        """The column scan ≡ the reference's scalar X/Y/Z loop, per row."""
        rng = np.random.default_rng(99)
        for _ in range(N_CASES):
            rows = int(rng.integers(1, 48))
            width = int(rng.integers(1, 30))
            pool = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
            ratios = rng.choice(pool, size=(rows, width))
            lengths = rng.integers(1, width + 1, size=rows).astype(np.int32)
            got = kadane_columns(np.ascontiguousarray(ratios.T), lengths)
            for row in range(rows):
                want = _scalar_scan(ratios[row, : int(lengths[row])].tolist())
                assert (
                    float(got.log_z[row]),
                    int(got.best_start[row]),
                    int(got.best_end[row]),
                ) == want, f"row {row}"

    def test_width_one_columns(self):
        """width=1 takes the no-restart branch: segment is [0, 1)."""
        columns = np.array([[-1.5, 0.0, 2.25]])
        lengths = np.ones(3, dtype=np.int32)
        batch = kadane_columns(columns, lengths)
        assert np.array_equal(batch.log_z, columns[0])
        assert np.array_equal(batch.best_start, np.zeros(3, dtype=np.int64))
        assert np.array_equal(batch.best_end, np.ones(3, dtype=np.int64))
