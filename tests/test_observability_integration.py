"""End-to-end tests for the instrumentation layer.

These drive real ``CLUSEQ`` and streaming runs (and the CLI) with a
live metrics registry and assert that the pipeline emits the
documented telemetry: per-phase timers, per-iteration log events, PST
size metrics, kernel timers, I/O latency histograms, iteration hooks,
and the zero-overhead default — and that turning all of it on never
changes what the clustering computes.
"""

import io
import json

import numpy as np
import pytest

from repro.core.backends import PstBatchScorer
from repro.core.cluseq import CLUSEQ, CluseqParams, IterationSnapshot
from repro.core.pst import ProbabilisticSuffixTree
from repro.obs import (
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    configure_logging,
    get_registry,
    reset_logging,
    use_registry,
)
from repro.sequences.generators import generate_clustered_database
from repro.stream import (
    StreamConfig,
    StreamingCluseq,
    drifting_markov_stream,
)


PARAMS = dict(
    k=2,
    significance_threshold=2,
    min_unique_members=3,
    max_iterations=20,
    seed=1,
)


#: The instrument kinds a registry snapshot holds: aggregates only.
AGGREGATE_KINDS = {"counter", "gauge", "histogram", "timer"}


def iteration_events(lines):
    """The fit's ``iteration`` records among JSON log *lines*."""
    records = [json.loads(line) for line in lines]
    return [
        r
        for r in records
        if r["logger"] == "repro.core.cluseq" and r["message"].startswith("iteration ")
    ]


def logged_iterations(run):
    """``run()`` with INFO JSON lines captured: its return value and the
    ``iteration`` events it logged."""
    lines = io.StringIO()
    configure_logging(level="INFO", json_lines=True, stream=lines)
    try:
        value = run()
    finally:
        reset_logging()
    return value, iteration_events(lines.getvalue().splitlines())


@pytest.fixture(autouse=True)
def _registry_isolation():
    yield
    # no test may leave a registry active
    assert get_registry() is NULL_REGISTRY


class TestRunTelemetry:
    def test_expected_metric_families_emitted(self, toy_db):
        registry = MetricsRegistry()
        with use_registry(registry):
            result, events = logged_iterations(
                lambda: CLUSEQ(CluseqParams(**PARAMS)).fit(toy_db)
            )
        assert result.num_clusters >= 1
        snapshot = registry.snapshot()
        assert {entry["type"] for entry in snapshot.values()} <= AGGREGATE_KINDS

        # per-phase span timers, aggregated across iterations
        for phase in ("seed", "recluster", "consolidate"):
            timer = registry.get(f"span.cluseq.{phase}")
            assert timer is not None, f"missing span.cluseq.{phase}"
            assert timer.count == len(result.history)
            assert timer.total_seconds >= 0.0
        run_timer = registry.get("span.cluseq")
        assert run_timer.count == 1
        assert run_timer.total_seconds >= max(
            registry.get(f"span.cluseq.{p}").total_seconds
            for p in ("seed", "recluster", "consolidate")
        )

        # per-iteration trajectory: one log event per history entry
        iterations = len(result.history)
        assert len(events) == iterations
        for event in events:
            for field in ("unclustered", "log_threshold", "membership_changes"):
                assert field in event, f"missing {field}"
            assert event["pst_nodes"] > 0
            assert event["peak_rss_bytes"] > 0

        # the logged trajectory matches the run history
        assert [event["clusters"] for event in events] == [
            s.clusters_after for s in result.history
        ]

        # end-of-run gauges
        assert registry.get("cluseq.iterations").value == iterations
        assert registry.get("cluseq.final_clusters").value == result.num_clusters
        assert registry.get("cluseq.converged").value == float(result.converged)

        # PST size metrics
        assert registry.get("cluseq.final_pst_nodes").value > 0
        depth_hist = registry.get("pst.final_depth")
        nodes_hist = registry.get("pst.final_nodes")
        assert depth_hist.count == result.num_clusters
        assert nodes_hist.count == result.num_clusters

        # work counters from the similarity hot path
        assert registry.get("similarity.calls").value > 0
        assert registry.get("similarity.dp_cells").value > 0
        assert (
            0
            < registry.get("similarity.context_walks").value
            < registry.get("similarity.dp_cells").value
        )
        assert registry.get("similarity.segment_length").count > 0

        # seeding/consolidation counters
        assert registry.get("seeding.selections").value >= 1
        assert registry.get("consolidation.passes").value == iterations

    def test_stable_clusters_replay_their_pass(self, toy_db):
        """Once a cluster is rebuilt from the same members as the
        iteration before, its pass is replayed and its tree kept; the
        §4.7 work counter still counts the replayed symbols."""
        registry = MetricsRegistry()
        with use_registry(registry):
            result = CLUSEQ(CluseqParams(**PARAMS)).fit(toy_db)
        assert result.converged
        replayed = registry.get("cluseq.replayed_passes").value
        assert replayed > 0
        assert registry.get("cluseq.models_kept").value > 0
        assert registry.get("cluseq.reclustering_work").value == (
            result.total_reclustering_work
        )
        scored_passes = sum(
            stats.clusters_before_consolidation for stats in result.history
        )
        assert replayed < scored_passes

    def test_reexamination_never_prescores(self, toy_db):
        """The fit scores everything with the reference DP: its §4.2
        re-examination pair by pair on the live models, and its
        threshold calibration per reference model. It never calls the
        batch kernel."""
        registry = MetricsRegistry()
        with use_registry(registry):
            CLUSEQ(CluseqParams(**PARAMS)).fit(toy_db)
        references = registry.get("cluseq.calibration_references").value
        assert references > 0
        assert registry.counter("backend.batch_calls").value == 0
        assert registry.counter("backend.flatten_builds").value == 0

    def test_kernel_pairs_are_not_counted_as_dp_calls(self):
        """``similarity.calls`` counts reference DP calls only; a kernel
        call's pairs land in ``backend.batch_rows``."""
        rng = np.random.default_rng(5)
        psts = []
        for _ in range(3):
            pst = ProbabilisticSuffixTree(
                alphabet_size=4, max_depth=3, significance_threshold=2
            )
            for _ in range(4):
                pst.add_sequence([int(s) for s in rng.integers(0, 4, size=20)])
            psts.append(pst)
        sequences = [[int(s) for s in rng.integers(0, 4, size=n)] for n in (25, 18)]
        registry = MetricsRegistry()
        with use_registry(registry):
            PstBatchScorer(np.full(4, 0.25), psts).score_matrix_full(sequences)
        assert registry.counter("backend.batch_calls").value == 1
        assert registry.counter("backend.batch_rows").value == 3 * 2
        assert registry.counter("similarity.calls").value == 0
        assert registry.counter("similarity.dp_cells").value == 0

    def test_registry_argument_without_global_activation(self, toy_db):
        """Passing ``registry=`` to CLUSEQ collects into it without the
        caller ever touching the global registry."""
        registry = MetricsRegistry()
        engine = CLUSEQ(CluseqParams(**PARAMS), registry=registry)
        result = engine.fit(toy_db)
        assert get_registry() is NULL_REGISTRY
        assert registry.get("span.cluseq").count == 1
        assert registry.get("cluseq.iterations").value == len(result.history)

    def test_default_run_has_zero_telemetry_footprint(self, toy_db):
        """With observability disabled (the default) a run must leave
        the global no-op registry empty — nothing collected anywhere."""
        result = CLUSEQ(CluseqParams(**PARAMS)).fit(toy_db)
        assert result.num_clusters >= 1
        assert get_registry() is NULL_REGISTRY
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.snapshot() == {}


class TestTelemetryDoesNotChangeResults:
    """Enabling every telemetry layer must be observationally invisible."""

    @pytest.fixture(scope="class")
    def toy_db(self):
        return generate_clustered_database(
            num_sequences=40,
            num_clusters=3,
            avg_length=40,
            alphabet_size=8,
            outlier_fraction=0.05,
            seed=11,
        ).database

    @staticmethod
    def _fingerprint(result):
        """Everything numeric the clustering decided, bit-for-bit."""
        memberships = []
        for cluster in sorted(result.clusters, key=lambda c: c.cluster_id):
            for index in sorted(cluster.members):
                member = cluster.membership_of(index)
                memberships.append(
                    (
                        cluster.cluster_id,
                        member.sequence_index,
                        member.log_similarity,
                        member.best_start,
                        member.best_end,
                    )
                )
        return {
            "labels": result.labels(),
            "final_log_threshold": result.final_log_threshold,
            "assignments": {
                k: sorted(v) for k, v in result.assignments.items()
            },
            "memberships": memberships,
            "converged": result.converged,
        }

    def test_golden_run_identical_with_telemetry_on(self, toy_db):
        params = CluseqParams(
            k=3, significance_threshold=2, max_iterations=4
        )
        plain = CLUSEQ(params).fit(toy_db)

        registry = MetricsRegistry()
        events = io.StringIO()
        configure_logging(level="DEBUG", json_lines=True, stream=events)
        try:
            with use_registry(registry):
                telemetered = CLUSEQ(params).fit(toy_db)
        finally:
            reset_logging()

        assert self._fingerprint(plain) == self._fingerprint(telemetered)
        # every span logged its event record
        spans = [
            json.loads(line).get("span") for line in events.getvalue().splitlines()
        ]
        assert "cluseq.recluster" in spans
        # and the telemetry run actually timed and counted the scoring
        assert registry.get("span.cluseq.recluster").count > 0
        assert registry.get("similarity.dp_cells").value > 0


class TestStreamTelemetry:
    def test_durable_stream_records_io_latency(self, tmp_path):
        stream = drifting_markov_stream(
            80, 40, alphabet_size=6, concentration=0.05, seed=5
        )
        config = StreamConfig(batch_size=20, checkpoint_every=2, seed=3)
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = StreamingCluseq.cold_start(
                alphabet_size=6,
                similarity_threshold=10.0,
                significance_threshold=3,
                max_depth=4,
                config=config,
                state_dir=tmp_path / "state",
            )
            with engine:
                engine.run(stream.sequences)

        batches = registry.get("stream.batches").value
        assert batches == 4
        for name in (
            "stream.wal_append_seconds",
            "stream.wal_fsync_seconds",
            "stream.checkpoint_write_seconds",
            "stream.checkpoint_fsync_seconds",
        ):
            histogram = registry.get(name)
            assert histogram is not None, f"missing {name}"
            assert histogram.count > 0
            assert histogram.bounds == LATENCY_BUCKETS
        # one journal record per batch, on top of the header line
        assert registry.get("stream.wal_append_seconds").count >= batches
        assert registry.get("stream.peak_rss_bytes").value > 0
        assert not any(name.startswith("profile.") for name in registry.snapshot())


class TestStreamSnapshotSize:
    @staticmethod
    def _snapshot(batches):
        """A cold-start stream of *batches* two-sequence batches, run
        under a registry: its snapshot."""
        stream = drifting_markov_stream(
            2 * batches, 12, alphabet_size=4, concentration=0.05, seed=5
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = StreamingCluseq.cold_start(
                alphabet_size=4,
                similarity_threshold=10.0,
                significance_threshold=3,
                max_depth=3,
                config=StreamConfig(batch_size=2, seed=3),
            )
            with engine:
                engine.run(stream.sequences)
        assert registry.get("stream.batches").value == batches
        return registry.snapshot()

    @staticmethod
    def _list_lengths(entry):
        return {key: len(value) for key, value in entry.items() if isinstance(value, list)}

    def test_snapshot_does_not_grow_with_the_stream(self):
        short, long = self._snapshot(100), self._snapshot(1000)
        for snapshot in (short, long):
            assert {entry["type"] for entry in snapshot.values()} <= AGGREGATE_KINDS
        assert short.keys() == long.keys()
        for name in short:
            assert self._list_lengths(short[name]) == self._list_lengths(long[name]), name


class TestIterationHooks:
    def test_one_snapshot_per_iteration(self, toy_db):
        snapshots = []
        engine = CLUSEQ(CluseqParams(**PARAMS), hooks=[snapshots.append])
        result = engine.fit(toy_db)

        assert len(snapshots) == len(result.history)
        for snap, stats in zip(snapshots, result.history):
            assert isinstance(snap, IterationSnapshot)
            assert snap.stats == stats
            assert len(snap.cluster_sizes) == stats.clusters_after
            assert set(snap.pst_node_counts) == set(snap.cluster_sizes)
        # the final snapshot matches the result
        assert len(snapshots[-1].cluster_sizes) == result.num_clusters
        assert snapshots[-1].log_threshold == result.final_log_threshold

    def test_add_hook_chains(self, toy_db):
        seen = []
        engine = CLUSEQ(CluseqParams(**PARAMS))
        assert engine.add_hook(seen.append) is engine
        engine.fit(toy_db)
        assert seen  # fired without any registry active

    def test_hooks_fire_without_registry(self, toy_db):
        count = []
        CLUSEQ(CluseqParams(**PARAMS), hooks=[lambda s: count.append(1)]).fit(
            toy_db
        )
        assert get_registry() is NULL_REGISTRY
        assert count


class TestExitPathHistory:
    """Satellite: the final iteration's stats must be complete on both
    exit paths (stability and the max_iterations cutoff)."""

    def test_stability_exit_records_final_iteration(self, toy_db):
        result = CLUSEQ(CluseqParams(**PARAMS)).fit(toy_db)
        assert result.converged
        assert result.history, "history must never be empty"
        last = result.history[-1]
        assert last.stable
        assert all(not s.stable for s in result.history[:-1])
        # the terminating iteration's stats are fully populated
        # (membership_changes may be nonzero even when stable: the
        # stability rule compares post-consolidation snapshots, so
        # transient joins to immediately-dismissed clusters count as
        # changes without breaking stability)
        assert last.elapsed_seconds > 0.0
        assert last.membership_changes >= 0
        # iterations are 0-indexed, one history entry per iteration
        assert last.iteration == len(result.history) - 1
        assert [s.iteration for s in result.history] == list(
            range(len(result.history))
        )

    def test_max_iterations_exit_records_final_iteration(self, toy_db):
        params = dict(PARAMS)
        params["max_iterations"] = 1
        result = CLUSEQ(CluseqParams(**params)).fit(toy_db)
        assert not result.converged
        assert len(result.history) == 1
        last = result.history[-1]
        assert not last.stable
        assert last.elapsed_seconds > 0.0

    def test_every_iteration_has_elapsed_time(self, toy_db):
        result = CLUSEQ(CluseqParams(**PARAMS)).fit(toy_db)
        assert all(s.elapsed_seconds > 0.0 for s in result.history)
        # elapsed times are per-iteration, not cumulative: their sum
        # cannot exceed the whole run's wall time
        assert sum(s.elapsed_seconds for s in result.history) <= (
            result.elapsed_seconds + 1e-6
        )

    def test_summary_reports_exit_reason(self, toy_db):
        result = CLUSEQ(CluseqParams(**PARAMS)).fit(toy_db)
        assert "converged" in result.summary()
        assert "last iter" in result.summary()
        params = dict(PARAMS)
        params["max_iterations"] = 1
        cutoff = CLUSEQ(CluseqParams(**params)).fit(toy_db)
        assert "max_iterations" in cutoff.summary()


class TestCliTelemetry:
    def test_metrics_out_writes_schema_document(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import TELEMETRY_SCHEMA_V2
        from repro.sequences.generators import generate_two_cluster_toy
        from repro.sequences.io import write_labelled_text

        db = generate_two_cluster_toy(size_per_cluster=15, length=30, seed=7)
        data = tmp_path / "toy.txt"
        write_labelled_text(db, data)
        out = tmp_path / "telemetry.json"

        code = main(
            [
                "--metrics-out",
                str(out),
                "--log-json",
                "--log-level",
                "INFO",
                "cluster",
                str(data),
                "-k",
                "2",
                "-c",
                "2",
            ]
        )
        assert code == 0
        assert get_registry() is NULL_REGISTRY

        document = json.loads(out.read_text())
        assert document["schema"] == TELEMETRY_SCHEMA_V2
        assert document["context"]["argv"][0] == "--metrics-out"
        metrics = document["metrics"]
        # per-phase timers
        assert metrics["span.cluseq"]["type"] == "timer"
        assert metrics["span.cluseq.recluster"]["count"] >= 1
        # aggregates only: the cluster/threshold trajectory is logged
        assert {entry["type"] for entry in metrics.values()} <= AGGREGATE_KINDS
        lines = capsys.readouterr().err.splitlines()
        assert any(json.loads(line)["message"] == "telemetry written" for line in lines)
        events = iteration_events(lines)
        assert len(events) == metrics["cluseq.iterations"]["value"] >= 1
        assert all(event["pst_nodes"] > 0 for event in events)
        # PST size metrics
        assert metrics["cluseq.final_pst_nodes"]["value"] > 0
        assert metrics["pst.final_depth"]["type"] == "histogram"
