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


class TestIndexAllocation:
    """``ClusteringResult.allocate_index`` gives every added sequence
    its index, for ``assign_and_absorb`` and a stream over the result
    alike: it scans once, counts up, and rescans only past an index
    recorded without it."""

    def test_consecutive_indices_leave_fitted_labels_alone(
        self, toy_db, fitted_toy
    ):
        n = fitted_toy.next_sequence_index()
        labels = fitted_toy.labels()[:n]
        for i in range(3):
            fitted_toy.assign_and_absorb(toy_db.encoded(i))
        assert sorted(fitted_toy.assignments)[-3:] == [n, n + 1, n + 2]
        assert fitted_toy.next_sequence_index() == n + 3
        assert fitted_toy.labels()[:n] == labels

    def test_rescans_past_a_stream_over_the_same_result(self, toy_db, fitted_toy):
        from repro.stream import StreamConfig, StreamingCluseq

        n = fitted_toy.next_sequence_index()
        fitted_toy.assign_and_absorb(toy_db.encoded(0))
        engine = StreamingCluseq(
            fitted_toy,
            StreamConfig(batch_size=1, reseed_every=0, consolidate_every=0),
        )
        # The stream records n + 1, the index the result counts to next.
        engine.ingest_batch([toy_db.encoded(1)])
        streamed = set(fitted_toy.assignments[n + 1])
        members = {
            cluster.cluster_id
            for cluster in fitted_toy.clusters
            if cluster.contains(n + 1)
        }
        fitted_toy.assign_and_absorb(toy_db.encoded(2))
        assert fitted_toy.assignments[n + 1] == streamed
        assert {
            cluster.cluster_id
            for cluster in fitted_toy.clusters
            if cluster.contains(n + 1)
        } == members
        assert n + 2 in fitted_toy.assignments

    def test_stream_and_result_share_one_allocator(self, toy_db, fitted_toy):
        """A stream built before an ``assign_and_absorb`` call takes the
        index after it, not the one the call already recorded."""
        from repro.stream import StreamConfig, StreamingCluseq

        n = fitted_toy.next_sequence_index()
        engine = StreamingCluseq(
            fitted_toy,
            StreamConfig(batch_size=1, reseed_every=0, consolidate_every=0),
        )
        fitted_toy.assign_and_absorb(toy_db.encoded(0))
        engine.ingest_batch([toy_db.encoded(1)])
        assert len(fitted_toy.assignments) == n + 2
        for index in (n, n + 1):
            assert fitted_toy.assignments[index] == {
                cluster.cluster_id
                for cluster in fitted_toy.clusters
                if cluster.contains(index)
            }
