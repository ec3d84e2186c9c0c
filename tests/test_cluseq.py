"""Unit tests for the CLUSEQ engine (parameters, result object, mechanics)."""

import math

import pytest

from repro.core.cluseq import CLUSEQ, CluseqParams, cluster_sequences
from repro.sequences.database import SequenceDatabase


class TestParams:
    def test_defaults_valid(self):
        CluseqParams()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 0),
            ("significance_threshold", 0),
            ("similarity_threshold", 0.0),
            ("similarity_threshold", -1.0),
            ("max_depth", 0),
            ("sample_multiplier", 0),
            ("max_iterations", 0),
            ("ordering", "bogus"),
            ("prune_strategy", "bogus"),
            ("max_nodes", 0),
        ],
    )
    def test_invalid_params(self, field, value):
        with pytest.raises(ValueError):
            CluseqParams(**{field: value})

    def test_min_unique_defaults_to_c(self):
        assert CluseqParams(significance_threshold=7).resolved_min_unique() == 7
        assert (
            CluseqParams(significance_threshold=7, min_unique_members=2)
            .resolved_min_unique()
            == 2
        )

    def test_params_or_overrides_not_both(self):
        with pytest.raises(TypeError):
            CLUSEQ(CluseqParams(), k=3)

    def test_overrides_accepted(self):
        engine = CLUSEQ(k=3, significance_threshold=2)
        assert engine.params.k == 3


class TestFitBasics:
    def test_empty_database_rejected(self):
        db = SequenceDatabase.from_strings(["ab"])
        db._records.clear()
        db._encoded.clear()
        with pytest.raises(ValueError, match="empty"):
            CLUSEQ(CluseqParams()).fit(db)

    def test_single_sequence(self):
        db = SequenceDatabase.from_strings(["abababab"])
        result = CLUSEQ(
            CluseqParams(significance_threshold=2, min_unique_members=1,
                         max_iterations=5)
        ).fit(db)
        assert result.num_clusters <= 1
        assert len(result.assignments) == 1

    def test_result_structure(self, toy_db):
        result = cluster_sequences(
            toy_db,
            k=2,
            significance_threshold=2,
            min_unique_members=3,
            max_iterations=10,
            seed=1,
        )
        assert result.iterations >= 1
        assert result.iterations == len(result.history)
        assert result.elapsed_seconds > 0
        assert set(result.assignments) == set(range(len(toy_db)))
        # Every assignment refers to a live cluster.
        live = {cl.cluster_id for cl in result.clusters}
        for ids in result.assignments.values():
            assert ids <= live

    def test_labels_consistent_with_assignments(self, toy_db):
        result = cluster_sequences(
            toy_db, k=2, significance_threshold=2, min_unique_members=3, seed=1
        )
        labels = result.labels()
        for index, label in enumerate(labels):
            if label is None:
                assert result.assignments[index] == set()
            else:
                assert label in result.assignments[index]

    def test_outliers_match_labels(self, toy_db):
        result = cluster_sequences(
            toy_db, k=2, significance_threshold=2, min_unique_members=3, seed=1
        )
        labels = result.labels()
        assert result.outliers() == [
            i for i, lab in enumerate(labels) if lab is None
        ]

    def test_cluster_by_id(self, toy_db):
        result = cluster_sequences(
            toy_db, k=2, significance_threshold=2, min_unique_members=3, seed=1
        )
        for cluster in result.clusters:
            assert result.cluster_by_id(cluster.cluster_id) is cluster
        with pytest.raises(KeyError):
            result.cluster_by_id(999999)

    def test_summary_readable(self, toy_db):
        result = cluster_sequences(
            toy_db, k=2, significance_threshold=2, min_unique_members=3, seed=1
        )
        text = result.summary()
        assert "CLUSEQ" in text and "clusters" in text

    def test_final_threshold_linear(self, toy_db):
        result = cluster_sequences(
            toy_db, k=2, significance_threshold=2, min_unique_members=3, seed=1
        )
        assert result.final_threshold == pytest.approx(
            math.exp(result.final_log_threshold)
        )


class TestHistory:
    def test_iteration_stats_fields(self, toy_db):
        result = cluster_sequences(
            toy_db, k=2, significance_threshold=2, min_unique_members=3, seed=1
        )
        for i, stats in enumerate(result.history):
            assert stats.iteration == i
            assert stats.clusters_after >= 0
            assert stats.unclustered >= 0
            assert stats.elapsed_seconds >= 0
            assert math.isfinite(stats.log_threshold)

    def test_max_iterations_respected(self, toy_db):
        result = cluster_sequences(
            toy_db,
            k=2,
            significance_threshold=2,
            min_unique_members=3,
            max_iterations=3,
            seed=1,
        )
        assert result.iterations <= 3


class TestPredict:
    def test_predict_member_sequence(self, toy_db):
        result = cluster_sequences(
            toy_db, k=2, significance_threshold=2, min_unique_members=3, seed=1
        )
        labels = result.labels()
        # Pick a clustered sequence and re-predict it.
        index = next(i for i, lab in enumerate(labels) if lab is not None)
        predicted = result.predict(toy_db.encoded(index))
        assert predicted in {cl.cluster_id for cl in result.clusters}

    def test_score_sequence_covers_all_clusters(self, toy_db):
        result = cluster_sequences(
            toy_db, k=2, significance_threshold=2, min_unique_members=3, seed=1
        )
        scores = result.score_sequence(toy_db.encoded(0))
        assert set(scores) == {cl.cluster_id for cl in result.clusters}

    def test_predict_no_clusters(self, toy_db):
        result = cluster_sequences(
            toy_db, k=2, significance_threshold=2, min_unique_members=3, seed=1
        )
        result.clusters = []
        assert result.predict(toy_db.encoded(0)) is None


class TestDeterminism:
    def test_same_seed_same_result(self, toy_db):
        kwargs = dict(
            k=2, significance_threshold=2, min_unique_members=3, seed=42
        )
        a = cluster_sequences(toy_db, **kwargs)
        b = cluster_sequences(toy_db, **kwargs)
        assert a.num_clusters == b.num_clusters
        assert a.labels() == b.labels()
        assert a.final_log_threshold == b.final_log_threshold


class TestOrderingPolicies:
    @pytest.mark.parametrize("ordering", ["fixed", "random", "cluster"])
    def test_all_orderings_run(self, toy_db, ordering):
        result = cluster_sequences(
            toy_db,
            k=2,
            significance_threshold=2,
            min_unique_members=3,
            ordering=ordering,
            max_iterations=6,
            seed=1,
        )
        assert result.iterations >= 1


class TestAdjustmentToggles:
    def test_no_adjustment_keeps_initial_t(self, toy_db):
        result = cluster_sequences(
            toy_db,
            k=2,
            significance_threshold=2,
            min_unique_members=3,
            adjust_threshold=False,
            similarity_threshold=5.0,
            max_iterations=6,
            seed=1,
        )
        assert result.final_log_threshold == pytest.approx(math.log(5.0))

    def test_calibration_off_keeps_user_start(self, toy_db):
        result = cluster_sequences(
            toy_db,
            k=2,
            significance_threshold=2,
            min_unique_members=3,
            calibrate_threshold=False,
            similarity_threshold=4.0,
            max_iterations=1,
            seed=1,
        )
        # After one iteration the threshold may have blended once, but it
        # must have *started* from log(4): verify via history.
        assert result.history[0].log_threshold != 0.0

    def test_rebuild_toggle_runs(self, toy_db):
        for rebuild in (True, False):
            result = cluster_sequences(
                toy_db,
                k=2,
                significance_threshold=2,
                min_unique_members=3,
                rebuild_each_iteration=rebuild,
                max_iterations=5,
                seed=1,
            )
            assert result.num_clusters >= 1

    def test_node_budget_respected_in_engine(self, toy_db):
        result = cluster_sequences(
            toy_db,
            k=2,
            significance_threshold=2,
            min_unique_members=3,
            max_nodes=50,
            max_iterations=5,
            seed=1,
        )
        for cluster in result.clusters:
            assert cluster.pst.node_count <= 50
