"""Tests for saving/loading fitted clusterings."""

import io
import json

import numpy as np
import pytest

from repro.core.cluseq import cluster_sequences
from repro.core.persistence import (
    FORMAT_VERSION,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)


@pytest.fixture(scope="module")
def fitted(request):
    from repro.sequences.generators import generate_two_cluster_toy

    db = generate_two_cluster_toy(size_per_cluster=20, length=30, seed=7)
    result = cluster_sequences(
        db,
        k=2,
        significance_threshold=2,
        min_unique_members=3,
        max_iterations=10,
        seed=1,
    )
    return db, result


class TestRoundtrip:
    def test_dict_roundtrip(self, fitted):
        _, result = fitted
        clone = result_from_dict(result_to_dict(result))
        assert clone.num_clusters == result.num_clusters
        assert clone.final_log_threshold == result.final_log_threshold
        assert clone.assignments == result.assignments
        assert clone.labels() == result.labels()
        assert np.allclose(clone.background, result.background)
        assert clone.params == result.params
        assert len(clone.history) == len(result.history)

    def test_file_roundtrip(self, fitted, tmp_path):
        _, result = fitted
        path = tmp_path / "model.json"
        save_result(result, path)
        clone = load_result(path)
        assert clone.labels() == result.labels()

    def test_stream_roundtrip(self, fitted):
        _, result = fitted
        buffer = io.StringIO()
        save_result(result, buffer)
        buffer.seek(0)
        clone = load_result(buffer)
        assert clone.num_clusters == result.num_clusters

    def test_predictions_survive(self, fitted):
        db, result = fitted
        clone = result_from_dict(result_to_dict(result))
        for index in range(0, len(db), 7):
            encoded = db.encoded(index)
            assert clone.predict(encoded) == result.predict(encoded)
            original = result.score_sequence(encoded)
            restored = clone.score_sequence(encoded)
            for cid, score in original.items():
                assert restored[cid].log_similarity == pytest.approx(
                    score.log_similarity
                )

    def test_memberships_survive(self, fitted):
        _, result = fitted
        clone = result_from_dict(result_to_dict(result))
        for cluster, cloned in zip(result.clusters, clone.clusters):
            assert cloned.members == cluster.members
            assert cloned.pst.node_count == cluster.pst.node_count


class TestAbsorbAfterRoundtrip:
    """Regression: ``assign_and_absorb`` after save -> load must pick a
    sequence index that collides with nothing already in the model."""

    def test_absorb_after_roundtrip_uses_fresh_index(self, fitted, tmp_path):
        db, result = fitted
        path = tmp_path / "model.json"
        save_result(result, path)
        clone = load_result(path)
        before = dict(clone.assignments)
        encoded = db.encoded(0)
        assigned = clone.assign_and_absorb(encoded)
        new_keys = set(clone.assignments) - set(before)
        assert len(new_keys) == 1
        new_index = new_keys.pop()
        assert new_index not in before
        # Every pre-existing assignment is untouched.
        for index, ids in before.items():
            assert clone.assignments[index] == ids
        if assigned is not None:
            member = clone.cluster_by_id(assigned).membership_of(new_index)
            assert member is not None

    def test_absorb_with_trimmed_assignments_no_collision(self, fitted):
        # A model whose assignment map was stripped (e.g. shipped for
        # inference only) used to hand out index 0 — colliding with the
        # clusters' member records and silently rewriting member 0.
        db, result = fitted
        payload = result_to_dict(result)
        payload["assignments"] = {}
        clone = result_from_dict(payload)
        memberships_before = {
            cluster.cluster_id: {
                index: cluster.membership_of(index)
                for index in cluster.members
            }
            for cluster in clone.clusters
        }
        encoded = db.encoded(0)
        new_index = clone.next_sequence_index()
        assert all(
            new_index not in cluster.members for cluster in clone.clusters
        )
        clone.assign_and_absorb(encoded)
        for cluster in clone.clusters:
            before = memberships_before[cluster.cluster_id]
            for index, membership in before.items():
                assert cluster.membership_of(index) == membership

    def test_predict_and_score_still_work_after_absorb(self, fitted, tmp_path):
        db, result = fitted
        clone = result_from_dict(result_to_dict(result))
        clone.assign_and_absorb(db.encoded(1))
        encoded = db.encoded(2)
        assert clone.predict(encoded) in (
            {c.cluster_id for c in clone.clusters} | {None}
        )
        scores = clone.score_sequence(encoded)
        assert set(scores) == {c.cluster_id for c in clone.clusters}

    def test_next_sequence_index_tops_members_and_assignments(self, fitted):
        _, result = fitted
        clone = result_from_dict(result_to_dict(result))
        top = max(
            max(clone.assignments, default=-1),
            max(
                (
                    max(cluster.members, default=-1)
                    for cluster in clone.clusters
                ),
                default=-1,
            ),
            max((c.seed_index for c in clone.clusters), default=-1),
        )
        assert clone.next_sequence_index() == top + 1


class TestFormat:
    def test_json_serializable(self, fitted):
        _, result = fitted
        text = json.dumps(result_to_dict(result))
        assert f'"format_version": {FORMAT_VERSION}' in text

    def test_unknown_version_rejected(self, fitted):
        _, result = fitted
        payload = result_to_dict(result)
        payload["format_version"] = 999
        with pytest.raises(ValueError, match="version"):
            result_from_dict(payload)

    def test_retired_params_are_dropped(self, fitted):
        # Files written while the fit still had scoring and valley
        # knobs carry them in params; they must keep loading.
        db, result = fitted
        payload = result_to_dict(result)
        payload["params"].update(
            backend="vectorized",
            workers=2,
            valley_method="otsu",
            calibration_method="regression",
            histogram_buckets=50,
        )
        clone = result_from_dict(payload)
        assert clone.params == result.params
        for index in range(len(db)):
            encoded = db.encoded(index)
            assert clone.predict(encoded) == result.predict(encoded)

    def test_other_unknown_params_still_fail(self, fitted):
        _, result = fitted
        payload = result_to_dict(result)
        payload["params"]["bogus"] = 1
        with pytest.raises(TypeError, match="bogus"):
            result_from_dict(payload)
