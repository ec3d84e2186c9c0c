"""Tests for incremental assignment (streaming deployment)."""

import pytest

from repro.core.cluseq import cluster_sequences


@pytest.fixture
def fitted_toy(toy_db):
    return cluster_sequences(
        toy_db,
        k=2,
        significance_threshold=2,
        min_unique_members=3,
        max_iterations=10,
        seed=1,
    )


class TestAssignAndAbsorb:
    def test_member_like_sequence_joins(self, toy_db, fitted_toy):
        encoded = toy_db.alphabet.encode("abababababababab")
        before = len(fitted_toy.assignments)
        assigned = fitted_toy.assign_and_absorb(encoded)
        assert assigned is not None
        cluster = fitted_toy.cluster_by_id(assigned)
        new_index = before  # appended at the next free index
        assert cluster.contains(new_index)
        assert fitted_toy.assignments[new_index] == {assigned}

    def test_absorption_grows_model(self, toy_db, fitted_toy):
        encoded = toy_db.alphabet.encode("abababababababab")
        assigned = fitted_toy.assign_and_absorb(encoded)
        cluster = fitted_toy.cluster_by_id(assigned)
        symbols_before = cluster.pst.total_symbols
        fitted_toy.assign_and_absorb(encoded)
        assert cluster.pst.total_symbols > symbols_before

    def test_outlier_recorded(self, toy_db, fitted_toy):
        # A sequence unlike either cluster: rare symbols alternating in
        # an unseen pattern.
        encoded = toy_db.alphabet.encode("acacacacacacacac")
        before = len(fitted_toy.assignments)
        assigned = fitted_toy.assign_and_absorb(encoded)
        if assigned is None:  # expected on most seeds
            assert fitted_toy.assignments[before] == set()

    def test_indices_monotone(self, toy_db, fitted_toy):
        first = len(fitted_toy.assignments)
        fitted_toy.assign_and_absorb(toy_db.encoded(0))
        fitted_toy.assign_and_absorb(toy_db.encoded(1))
        assert set(fitted_toy.assignments) >= {first, first + 1}

    def test_empty_rejected(self, fitted_toy):
        with pytest.raises(ValueError):
            fitted_toy.assign_and_absorb([])

    def test_existing_memberships_untouched(self, toy_db, fitted_toy):
        snapshot = {
            cl.cluster_id: cl.members for cl in fitted_toy.clusters
        }
        new_index = len(fitted_toy.assignments)
        fitted_toy.assign_and_absorb(toy_db.encoded(0))
        for cluster in fitted_toy.clusters:
            extra = cluster.members - snapshot[cluster.cluster_id]
            assert extra <= {new_index}

    def test_consistent_with_predict(self, toy_db, fitted_toy):
        encoded = toy_db.alphabet.encode("babababababababa")
        predicted = fitted_toy.predict(encoded)
        assigned = fitted_toy.assign_and_absorb(encoded)
        assert assigned == predicted


class TestPinnedIndex:
    """``assign_and_absorb(index=)`` refuses an index the model already
    records, so one sequence never ends up in two clusters' member
    lists while the assignment map names only one of them."""

    @staticmethod
    def state(result):
        return (
            {i: sorted(ids) for i, ids in result.assignments.items()},
            [
                (cluster.cluster_id, sorted(cluster.members), cluster.pst.to_dict())
                for cluster in result.clusters
            ],
        )

    def test_member_index_rejected_before_scoring(self, toy_db, fitted_toy):
        member = min(fitted_toy.clusters[0].members)
        other = fitted_toy.clusters[-1]
        foreign = toy_db.encoded(min(other.members))
        before = self.state(fitted_toy)
        with pytest.raises(ValueError, match=f"sequence index {member} is already"):
            fitted_toy.assign_and_absorb(foreign, index=member)
        assert self.state(fitted_toy) == before

    def test_seed_index_missing_from_assignments_rejected(self, toy_db, fitted_toy):
        seed = fitted_toy.clusters[0].seed_index
        fitted_toy.assignments.pop(seed, None)
        for cluster in fitted_toy.clusters:
            cluster.drop_member(seed)
        with pytest.raises(ValueError, match=f"sequence index {seed} is already"):
            fitted_toy.assign_and_absorb(toy_db.encoded(seed), index=seed)

    def test_fresh_pinned_index_is_recorded(self, toy_db, fitted_toy):
        index = fitted_toy.next_sequence_index() + 5
        assigned = fitted_toy.assign_and_absorb(toy_db.encoded(0), index=index)
        expected = set() if assigned is None else {assigned}
        assert fitted_toy.assignments[index] == expected
