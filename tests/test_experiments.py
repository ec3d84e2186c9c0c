"""Tests for the experiment harnesses (small configurations).

Each harness must run end-to-end, return well-formed rows and print a
table; the *shape* assertions (who wins, what stays flat) live in the
benchmarks where full-size workloads run.
"""

import pytest

from repro.datasets.languages import make_language_database
from repro.datasets.protein import make_protein_database
from repro.experiments.ablation_pruning import (
    print_ablation_pruning,
    run_ablation_pruning,
)
from repro.experiments.ablation_smoothing import (
    measure_zero_probability_effect,
    print_ablation_smoothing,
    run_ablation_smoothing,
)
from repro.experiments.common import run_cluseq, scaled_params
from repro.experiments.fig4_pst_size import print_fig4, run_fig4
from repro.experiments.fig5_sample_size import print_fig5, run_fig5
from repro.experiments.fig6_scalability import (
    DIMENSIONS,
    loglog_slope,
    print_fig6,
    run_fig6_dimension,
)
from repro.experiments.ordering_policies import print_ordering, run_ordering
from repro.experiments.outlier_robustness import (
    accuracy_drop,
    print_outlier_robustness,
    run_outlier_robustness,
)
from repro.experiments.table2_model_comparison import (
    print_table2,
    run_table2,
)
from repro.experiments.table3_protein_families import print_table3, run_table3
from repro.experiments.table4_languages import print_table4, run_table4
from repro.experiments.table5_initial_k import print_table5, run_table5
from repro.experiments.table6_initial_t import (
    final_threshold_spread,
    print_table6,
    run_table6,
)
from repro.sequences.generators import generate_clustered_database


@pytest.fixture(scope="module")
def small_protein_db():
    return make_protein_database(
        num_families=4, scale=0.03, mean_length=80, seed=1, concentration=0.2
    )


@pytest.fixture(scope="module")
def small_synth_db():
    return generate_clustered_database(
        num_sequences=90,
        num_clusters=3,
        avg_length=80,
        alphabet_size=10,
        outlier_fraction=0.05,
        seed=5,
    ).database


class TestCommon:
    def test_run_cluseq(self, small_synth_db):
        run = run_cluseq(
            small_synth_db,
            **scaled_params(
                small_synth_db, k=3, significance_threshold=4,
                min_unique_members=3, max_iterations=10, seed=1
            ),
        )
        assert 0.0 <= run.accuracy <= 1.0
        assert run.elapsed_seconds > 0

    def test_scaled_params_overrides(self, small_synth_db):
        params = scaled_params(small_synth_db, k=7)
        assert params["k"] == 7
        assert params["significance_threshold"] >= 3


class TestTable2(object):
    def test_fast_models_only(self, small_protein_db, capsys):
        rows = run_table2(db=small_protein_db, models=["CLUSEQ", "q-gram"])
        names = [row.model for row in rows]
        assert names == ["CLUSEQ", "q-gram"]
        for row in rows:
            assert 0.0 <= row.accuracy <= 1.0
            assert row.elapsed_seconds > 0
        print_table2(rows)
        out = capsys.readouterr().out
        assert "Table 2" in out and "CLUSEQ" in out


class TestTable3:
    def test_rows_per_family(self, small_protein_db, capsys):
        rows = run_table3(db=small_protein_db)
        assert len(rows) == 4
        assert [r.size for r in rows] == sorted(
            (r.size for r in rows), reverse=True
        )
        print_table3(rows)
        assert "Table 3" in capsys.readouterr().out


class TestTable4:
    def test_language_rows(self, capsys):
        db = make_language_database(
            sentences_per_language=25, noise_sentences=5, seed=2
        )
        rows = run_table4(db=db)
        assert {r.language for r in rows} == {"english", "chinese", "japanese"}
        print_table4(rows)
        assert "Table 4" in capsys.readouterr().out


class TestTable5:
    def test_k_sweep(self, small_synth_db, capsys):
        rows = run_table5(db=small_synth_db, initial_ks=(1, 3), true_k=3)
        assert [r.initial_k for r in rows] == [1, 3]
        for row in rows:
            assert row.final_clusters >= 1
        print_table5(rows, true_k=3)
        assert "Table 5" in capsys.readouterr().out


class TestTable6:
    def test_t_sweep_calibrated_is_t_independent(self, small_synth_db, capsys):
        rows = run_table6(
            db=small_synth_db, initial_ts=(1.05, 3.0), true_k=3
        )
        assert final_threshold_spread(rows) < 1e-9
        print_table6(rows)
        assert "Table 6" in capsys.readouterr().out


class TestFig3:
    def test_distribution_report(self, small_synth_db, capsys):
        from repro.experiments.fig3_similarity_histogram import (
            print_fig3,
            run_fig3,
        )

        result = run_fig3(db=small_synth_db, true_k=3, buckets=20)
        assert len(result.series) == 20
        assert result.member_count > 0
        assert result.non_member_count > result.member_count
        assert set(result.valley_estimates) == {"regression", "otsu"}
        low, high = result.boundary_window
        assert low == result.non_member_p99
        assert high == result.member_p10
        print_fig3(result)
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Valley estimates" in out


class TestFig4:
    def test_budget_sweep(self, small_synth_db, capsys):
        rows = run_fig4(db=small_synth_db, node_budgets=(100, 1000), true_k=3)
        assert [r.max_nodes for r in rows] == [100, 1000]
        print_fig4(rows)
        assert "Figure 4" in capsys.readouterr().out


class TestFig5:
    def test_multiplier_sweep(self, small_synth_db, capsys):
        rows = run_fig5(db=small_synth_db, multipliers=(1, 5), true_k=3)
        assert [r.multiplier for r in rows] == [1, 5]
        print_fig5(rows)
        assert "Figure 5" in capsys.readouterr().out


class TestFig6:
    def test_one_dimension(self, capsys):
        rows = run_fig6_dimension("num_sequences", values=(40, 80), seed=5)
        assert [r.value for r in rows] == [40, 80]
        slope = loglog_slope(rows)
        assert slope == slope  # finite, not NaN
        print_fig6({"num_sequences": rows})
        assert "scalability" in capsys.readouterr().out

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            run_fig6_dimension("bogus")

    def test_dimensions_constant(self):
        assert DIMENSIONS == (
            "num_clusters",
            "num_sequences",
            "avg_length",
            "alphabet_size",
        )


class TestOrdering:
    def test_policies(self, small_synth_db, capsys):
        rows = run_ordering(
            db=small_synth_db, orderings=("fixed", "cluster"), true_k=3
        )
        assert [r.ordering for r in rows] == ["fixed", "cluster"]
        print_ordering(rows)
        assert "examination order" in capsys.readouterr().out


class TestOutliers:
    def test_sweep(self, capsys):
        rows = run_outlier_robustness(
            fractions=(0.05, 0.15), true_k=3, num_sequences=80, seed=5
        )
        assert len(rows) == 2
        drop = accuracy_drop(rows)
        assert -1.0 <= drop <= 1.0
        print_outlier_robustness(rows)
        assert "outliers" in capsys.readouterr().out


class TestAblations:
    def test_pruning(self, small_synth_db, capsys):
        rows = run_ablation_pruning(db=small_synth_db, max_nodes=200, true_k=3)
        strategies = [r.strategy for r in rows]
        assert strategies[0] == "unbounded"
        assert "paper" in strategies
        print_ablation_pruning(rows)
        assert "pruning" in capsys.readouterr().out

    def test_smoothing_rows(self, small_synth_db, capsys):
        rows = run_ablation_smoothing(
            db=small_synth_db, p_min_scales=(0.0, 1e-3), true_k=3
        )
        assert [r.p_min_scale for r in rows] == [0.0, 1e-3]
        stats = measure_zero_probability_effect(
            cluster_size=3, holdout=5, avg_length=80, alphabet_size=15
        )
        # The paper's point: without smoothing, small clusters zero out
        # held-out members; with smoothing they never do.
        assert stats.fraction_zeroed_smoothed == 0.0
        assert (
            stats.fraction_zeroed_unsmoothed
            >= stats.fraction_zeroed_smoothed
        )
        assert stats.mean_log_sim_smoothed >= stats.mean_log_sim_unsmoothed
        print_ablation_smoothing(rows, stats)
        assert "smoothing" in capsys.readouterr().out

    def test_zero_probability_effect_pinned(self):
        """The whole-sequence logs are the in-order sums of the DP's
        ratios, so the default measurement is exact to the last bit."""
        stats = measure_zero_probability_effect()
        assert stats.fraction_zeroed_unsmoothed == 1.0
        assert stats.fraction_zeroed_smoothed == 0.0
        assert stats.mean_log_sim_unsmoothed == -29763.23051207352
        assert stats.mean_log_sim_smoothed == -227.12895157336607
