"""Tests for the bench trajectory ledger (``tools/benchtrack``)."""

from __future__ import annotations

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.benchtrack import (  # noqa: E402
    check_fit_quality,
    check_regressions,
    check_serving,
    ingest,
    load_bench_document,
    load_ledger,
    new_ledger,
    render_report,
    save_ledger,
    stamp_bench_document,
    validate_bench_document,
)
from tools.benchtrack.schema import write_bench_document  # noqa: E402


def bench_doc(**overrides):
    doc = {
        "schema": "repro.bench/v1",
        "bench": "backend_scoring",
        "workload": {"alphabet": 12, "sequences": 40},
        "results": [
            {"backend": "reference", "workers": 0, "seconds": 0.10,
             "speedup": 1.0},
            {"backend": "vectorized", "workers": 0, "seconds": 0.02,
             "speedup": 5.0},
        ],
    }
    doc.update(overrides)
    return doc


class TestSchema:
    def test_valid_document_passes(self):
        assert validate_bench_document(bench_doc()) == []

    def test_problems_are_itemized(self):
        problems = validate_bench_document(
            {"schema": "other", "bench": "", "workload": {}, "results": []}
        )
        assert len(problems) == 4

    def test_non_dict_rejected(self):
        assert validate_bench_document([1, 2]) != []

    def test_nonpositive_seconds_rejected(self):
        doc = bench_doc()
        doc["results"][0]["seconds"] = 0.0
        assert any("seconds" in p for p in validate_bench_document(doc))

    def test_stamp_adds_provenance(self):
        doc = stamp_bench_document(bench_doc())
        assert isinstance(doc["generated_unix"], float)
        assert isinstance(doc.get("git_sha"), str)  # we run inside the repo
        assert len(doc["git_sha"]) == 40

    def test_stamp_preserves_existing(self):
        doc = stamp_bench_document(
            bench_doc(git_sha="cafe", generated_unix=123.0)
        )
        assert doc["git_sha"] == "cafe"
        assert doc["generated_unix"] == 123.0

    def test_write_validates_and_stamps(self, tmp_path):
        target = write_bench_document(tmp_path / "b.json", bench_doc())
        loaded = load_bench_document(target)
        assert loaded["git_sha"]
        with pytest.raises(ValueError, match="invalid"):
            write_bench_document(tmp_path / "bad.json", {"schema": "nope"})


class TestLedger:
    def test_ingest_appends_and_roundtrips(self, tmp_path):
        ledger = new_ledger()
        ingest(ledger, bench_doc(), source="b.json")
        ingest(ledger, bench_doc(), source="b2.json")
        path = tmp_path / "ledger.json"
        save_ledger(path, ledger)
        reloaded = load_ledger(path)
        assert len(reloaded["entries"]) == 2
        assert reloaded["entries"][0]["source"] == "b.json"

    def test_load_missing_path_gives_fresh_ledger(self, tmp_path):
        ledger = load_ledger(tmp_path / "absent.json")
        assert ledger["entries"] == []

    def test_load_rejects_foreign_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v1", "entries": []}')
        with pytest.raises(ValueError, match="not a"):
            load_ledger(bad)

    def test_ingest_rejects_invalid_document(self):
        with pytest.raises(ValueError, match="invalid"):
            ingest(new_ledger(), {"schema": "nope"})

    def test_report_lists_entries(self):
        ledger = new_ledger()
        ingest(ledger, bench_doc())
        report = render_report(ledger)
        assert "## backend_scoring" in report
        assert "backend=vectorized workers=0" in report
        assert "5.00x" in report

    def test_report_marks_worker_pool_rows_historical(self):
        doc = bench_doc()
        doc["results"].append(
            {"backend": "vectorized", "workers": 2, "seconds": 0.03,
             "speedup": 3.3}
        )
        ledger = new_ledger()
        ingest(ledger, doc)
        rows = [
            line for line in render_report(ledger).splitlines()
            if line.startswith("| ") and "backend=" in line
        ]
        assert ["*(historical)*" in row for row in rows] == [False, False, True]


class TestCheck:
    def test_no_baseline_passes(self):
        assert check_regressions(new_ledger(), bench_doc()) == []

    def test_same_numbers_pass(self):
        ledger = new_ledger()
        ingest(ledger, bench_doc())
        assert check_regressions(ledger, bench_doc()) == []

    def test_regressed_speedup_fails(self):
        ledger = new_ledger()
        ingest(ledger, bench_doc())
        regressed = bench_doc()
        for row in regressed["results"]:
            row["speedup"] = row["speedup"] / 2.5  # beyond 50% tolerance
        messages = check_regressions(ledger, regressed)
        assert messages
        assert any("vectorized" in m and "regressed" in m for m in messages)

    def test_within_tolerance_passes(self):
        ledger = new_ledger()
        ingest(ledger, bench_doc())
        wobble = bench_doc()
        wobble["results"][1]["speedup"] = 4.0  # -20%, tolerance is 50%
        assert check_regressions(ledger, wobble) == []

    def test_different_workload_never_compared(self):
        ledger = new_ledger()
        ingest(ledger, bench_doc())
        other = bench_doc(workload={"alphabet": 12, "sequences": 999})
        for row in other["results"]:
            row["speedup"] = 0.01
        assert check_regressions(ledger, other) == []

    def test_new_config_is_not_a_regression(self):
        ledger = new_ledger()
        ingest(ledger, bench_doc())
        extended = bench_doc()
        extended["results"].append(
            {"backend": "vectorized", "workers": 8, "seconds": 1.0,
             "speedup": 0.1}
        )
        assert check_regressions(ledger, extended) == []

    def test_baseline_without_twin_rows_fails(self):
        # The baseline exists, but every row's configuration is new: a
        # gate that compares nothing must not pass.
        ledger = new_ledger()
        ingest(ledger, bench_doc())
        unmatched = bench_doc()
        for row in unmatched["results"]:
            row["workers"] = 2
        messages = check_regressions(ledger, unmatched)
        assert len(messages) == 1
        assert "no result row could be compared" in messages[0]

    def test_latest_entry_is_the_baseline(self):
        ledger = new_ledger()
        fast = bench_doc()
        ingest(ledger, copy.deepcopy(fast))
        slower = bench_doc()
        slower["results"][1]["speedup"] = 2.0
        ingest(ledger, slower)
        # 1.9 vs latest baseline 2.0 is fine; vs the first entry's 5.0
        # it would fail — latest must win.
        current = bench_doc()
        current["results"][1]["speedup"] = 1.9
        assert check_regressions(ledger, current) == []

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_regressions(new_ledger(), bench_doc(), tolerance=1.5)


SHARD_METRIC = "seqs_per_second"


def shard_doc(single=3000.0, multi=2000.0):
    return bench_doc(
        bench="shard_throughput",
        workload={"num_sequences": 400, "shape": "smoke"},
        # Outcome counts differ between shard counts (more shards keep
        # more clusters); they are measurements, not configuration.
        results=[
            {"shards": 1, "runner": "inprocess", "seconds": 400 / single,
             "seqs_per_second": single, "sequences": 400, "clusters": 4,
             "cross_merges": 0},
            {"shards": 2, "runner": "inprocess", "seconds": 400 / multi,
             "seqs_per_second": multi, "sequences": 400, "clusters": 9,
             "cross_merges": 5},
        ],
    )


class TestCheckShardThroughput:
    def test_fewer_shards_faster_passes(self):
        # In one process more shards are slower; each shard count is
        # judged against its own baseline row, never against shards=1.
        ledger = new_ledger()
        ingest(ledger, shard_doc(single=3000.0, multi=2000.0))
        assert check_regressions(
            ledger, shard_doc(single=3000.0, multi=2000.0), metric=SHARD_METRIC
        ) == []

    def test_one_shard_count_regressing_fails(self):
        ledger = new_ledger()
        ingest(ledger, shard_doc())
        messages = check_regressions(
            ledger, shard_doc(multi=500.0), metric=SHARD_METRIC
        )
        assert len(messages) == 1
        assert "shards=2" in messages[0]
        assert "regressed" in messages[0]

    def test_outcome_counts_do_not_fork_config_keys(self):
        ledger = new_ledger()
        ingest(ledger, shard_doc())
        moved = shard_doc(single=100.0, multi=100.0)
        for row in moved["results"]:
            row["clusters"] += 3
            row["cross_merges"] += 2
        messages = check_regressions(ledger, moved, metric=SHARD_METRIC)
        assert len(messages) == 2
        assert all("regressed" in m for m in messages)

    def test_shipped_ledger_gates_the_smoke_sweep(self):
        # CI checks a fresh smoke sweep against BENCH_TRAJECTORY.json. A
        # smoke workload without a baseline would pass unchecked, so the
        # sweep's exact workload must have one with every shard count.
        spec = importlib.util.spec_from_file_location(
            "bench_shard_throughput",
            REPO_ROOT / "benchmarks" / "bench_shard_throughput.py",
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        doc = bench.run_sweep(smoke=True)
        for row in doc["results"]:
            row[SHARD_METRIC] = 1e-9
        messages = check_regressions(
            load_ledger(REPO_ROOT / "BENCH_TRAJECTORY.json"),
            doc,
            metric=SHARD_METRIC,
        )
        assert len(messages) == len(bench.SMOKE_SWEEP)
        assert all("regressed" in m for m in messages)


def serving_doc(rps=500.0, p99=8.0, **overrides):
    doc = bench_doc(
        bench="serving",
        workload={"sequences": 64, "requests": 200},
        results=[
            {
                "mode": "classify",
                "workers": 0,
                "seconds": 2.0,
                "requests": 200,
                "rejected": 0,
                "errors": 0,
                "req_per_second": rps,
                "p50_ms": p99 / 3,
                "p99_ms": p99,
                "batch_occupancy": 3.5,
            }
        ],
    )
    doc.update(overrides)
    return doc


class TestCheckServing:
    def test_no_baseline_passes(self):
        assert check_serving(new_ledger(), serving_doc()) == []

    def test_same_numbers_pass(self):
        ledger = new_ledger()
        ingest(ledger, serving_doc())
        assert check_serving(ledger, serving_doc()) == []

    def test_throughput_collapse_fails(self):
        ledger = new_ledger()
        ingest(ledger, serving_doc(rps=500.0))
        messages = check_serving(ledger, serving_doc(rps=100.0))
        assert len(messages) == 1
        assert "req_per_second" in messages[0]

    def test_latency_collapse_fails(self):
        ledger = new_ledger()
        ingest(ledger, serving_doc(p99=8.0))
        messages = check_serving(ledger, serving_doc(p99=40.0))
        assert len(messages) == 1
        assert "p99_ms" in messages[0]

    def test_both_directions_reported(self):
        ledger = new_ledger()
        ingest(ledger, serving_doc(rps=500.0, p99=8.0))
        messages = check_serving(ledger, serving_doc(rps=100.0, p99=40.0))
        assert len(messages) == 2

    def test_within_tolerance_passes(self):
        ledger = new_ledger()
        ingest(ledger, serving_doc(rps=500.0, p99=8.0))
        # -40% throughput and +90% p99 both sit inside the defaults
        # (50% drop allowed, 100% rise allowed).
        assert check_serving(ledger, serving_doc(rps=300.0, p99=15.0)) == []

    def test_metric_fields_do_not_fork_config_keys(self):
        # Measurement fields (req_per_second, p99_ms, counts...) must
        # not participate in row matching, or every run would be a "new
        # configuration" and the gate would never fire.
        ledger = new_ledger()
        ingest(ledger, serving_doc(rps=500.0))
        messages = check_serving(ledger, serving_doc(rps=10.0, p99=99.0))
        # Rows matched despite every measurement moving.
        assert len(messages) == 2
        assert all("regressed" in m for m in messages)

    def test_different_workload_never_compared(self):
        ledger = new_ledger()
        ingest(ledger, serving_doc())
        other = serving_doc(rps=1.0, workload={"sequences": 9, "requests": 9})
        assert check_serving(ledger, other) == []

    def test_baseline_without_twin_rows_fails(self):
        ledger = new_ledger()
        ingest(ledger, serving_doc())
        unmatched = serving_doc()
        unmatched["results"][0]["workers"] = 2
        messages = check_serving(ledger, unmatched)
        assert len(messages) == 1
        assert "no result row could be compared" in messages[0]

    def test_invalid_document_reported(self):
        messages = check_serving(new_ledger(), {"schema": "other"})
        assert messages
        assert all("invalid bench document" in m for m in messages)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_serving(new_ledger(), serving_doc(), tolerance=1.5)
        with pytest.raises(ValueError, match="latency"):
            check_serving(
                new_ledger(), serving_doc(), latency_tolerance=-0.5
            )


def fit_quality_doc(ari=0.7, **outcomes):
    row = {"draw": "0.05/3", "outlier_fraction": 0.05, "seed": 3, "ari": ari,
           "iterations": 25, "converged": False, "clusters": 10,
           "digest": "a5c06af12dcbba8a", "seconds": 1.0}
    row.update(outcomes)
    return bench_doc(
        bench="fit_quality",
        workload={"num_sequences": 400, "k": 2},
        results=[row],
    )


def load_fit_quality_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_fit_quality", REPO_ROOT / "benchmarks" / "bench_fit_quality.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_report_shows_fit_quality_outcomes():
    """A fit-quality table shows each draw's ARI, recovered clusters,
    outliers left and host parallelism next to its wall; other tables
    keep their columns."""
    ledger = new_ledger()
    ingest(ledger, bench_doc())
    ingest(ledger, fit_quality_doc(recovered=9, outliers_left=17,
                                   host_parallelism=1.04))
    report = render_report(ledger)
    assert (
        "| date | sha | config | seconds | ARI | recovered | outliers left "
        "| host parallelism | speedup |"
    ) in report
    assert "| 1 | 0.700 | 9 | 17 | 1.04 | - |" in report
    assert "| date | sha | config | seconds | speedup |" in report


class TestCheckFitQuality:
    @pytest.fixture(scope="class")
    def smoke_doc(self):
        # The smoke CI runs: two draws, each fitted in a fresh process.
        bench = load_fit_quality_bench()
        return bench.bench_document(
            [bench.run_draw(fraction, seed) for fraction, seed in bench.SMOKE_DRAWS]
        )

    @pytest.fixture(scope="class")
    def shipped(self):
        return load_ledger(REPO_ROOT / "BENCH_TRAJECTORY.json")

    def test_shipped_smoke_passes(self, smoke_doc, shipped):
        assert check_fit_quality(shipped, smoke_doc) == []

    def test_ari_drop_beyond_tolerance_fails(self, smoke_doc, shipped):
        dropped = copy.deepcopy(smoke_doc)
        dropped["results"][1]["ari"] -= 0.03
        messages = check_fit_quality(shipped, dropped)
        assert len(messages) == 1
        assert "draw=0.05/3" in messages[0]
        assert "ari regressed" in messages[0]

    def test_no_shared_draw_fails(self, smoke_doc, shipped):
        foreign = copy.deepcopy(smoke_doc)
        for row in foreign["results"]:
            row["draw"] = "0.5/" + row["draw"]
        messages = check_fit_quality(shipped, foreign)
        assert len(messages) == 1
        assert "no result row could be compared" in messages[0]

    def test_no_baseline_passes(self):
        assert check_fit_quality(new_ledger(), fit_quality_doc()) == []

    def test_outcomes_do_not_fork_config_keys(self):
        ledger = new_ledger()
        ingest(ledger, fit_quality_doc())
        moved = fit_quality_doc(
            ari=0.71, iterations=12, converged=True, clusters=9, seeds=20,
            dismissed=10, recovered=10, outliers_left=14, outliers=20,
            t_moves=2, digest="0000000000000000",
        )
        assert check_fit_quality(ledger, moved) == []
        assert check_fit_quality(ledger, fit_quality_doc(ari=0.5)) != []

    def test_within_tolerance_passes(self):
        ledger = new_ledger()
        ingest(ledger, fit_quality_doc(ari=0.7))
        assert check_fit_quality(ledger, fit_quality_doc(ari=0.69)) == []


class TestCli:
    def run(self, *argv, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "tools.benchtrack", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
        )

    def test_ingest_report_check_cycle(self, tmp_path):
        bench_path = tmp_path / "bench.json"
        bench_path.write_text(json.dumps(bench_doc()))
        ledger_path = tmp_path / "ledger.json"
        report_path = tmp_path / "report.md"
        ingested = self.run(
            "ingest", str(bench_path),
            "--ledger", str(ledger_path), "--report", str(report_path),
        )
        assert ingested.returncode == 0, ingested.stderr
        assert "1 entries" in ingested.stdout
        assert "## backend_scoring" in report_path.read_text()

        ok = self.run("check", str(bench_path), "--ledger", str(ledger_path))
        assert ok.returncode == 0, ok.stderr

        regressed = bench_doc()
        for row in regressed["results"]:
            row["speedup"] = row["speedup"] / 3
        regressed_path = tmp_path / "regressed.json"
        regressed_path.write_text(json.dumps(regressed))
        failed = self.run(
            "check", str(regressed_path), "--ledger", str(ledger_path)
        )
        assert failed.returncode == 1
        assert "REGRESSION" in failed.stderr

    def test_check_sugar_uses_repo_ledger(self):
        # BENCH_PR5.json is the seeded first ledger entry, so checking it
        # against the shipped BENCH_TRAJECTORY.json must pass.
        result = self.run("--check", str(REPO_ROOT / "BENCH_PR5.json"))
        assert result.returncode == 0, result.stderr
        assert "passed" in result.stdout

    def test_shipped_ledger_contains_seed_entry(self):
        ledger = load_ledger(REPO_ROOT / "BENCH_TRAJECTORY.json")
        assert any(
            entry["source"] == "BENCH_PR5.json" for entry in ledger["entries"]
        )

    def test_check_shard_throughput_cli_pass_and_fail(self, tmp_path):
        ledger_path = tmp_path / "ledger.json"
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(shard_doc()))
        ingested = self.run(
            "ingest", str(baseline_path),
            "--ledger", str(ledger_path), "--report", "",
        )
        assert ingested.returncode == 0, ingested.stderr

        ok = self.run(
            "check", str(baseline_path), "--ledger", str(ledger_path),
            "--metric", SHARD_METRIC,
        )
        assert ok.returncode == 0, ok.stderr
        assert "passed" in ok.stdout

        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(shard_doc(single=500.0)))
        failed = self.run(
            "check", str(bad_path), "--ledger", str(ledger_path),
            "--metric", SHARD_METRIC,
        )
        assert failed.returncode == 1
        assert "shards=1" in failed.stderr

    def test_check_serving_cli_pass_and_fail(self, tmp_path):
        ledger_path = tmp_path / "ledger.json"
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(serving_doc()))
        ingested = self.run(
            "ingest", str(baseline_path),
            "--ledger", str(ledger_path), "--report", "",
        )
        assert ingested.returncode == 0, ingested.stderr

        ok = self.run(
            "check-serving", str(baseline_path), "--ledger", str(ledger_path)
        )
        assert ok.returncode == 0, ok.stderr
        assert "passed" in ok.stdout

        regressed_path = tmp_path / "regressed.json"
        regressed_path.write_text(json.dumps(serving_doc(rps=50.0, p99=99.0)))
        failed = self.run(
            "check-serving", str(regressed_path), "--ledger", str(ledger_path)
        )
        assert failed.returncode == 1
        assert "SERVING REGRESSION" in failed.stderr

    def test_check_fit_quality_cli_pass_and_fail(self, tmp_path):
        ledger_path = tmp_path / "ledger.json"
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(fit_quality_doc()))
        ingested = self.run(
            "ingest", str(baseline_path),
            "--ledger", str(ledger_path), "--report", "",
        )
        assert ingested.returncode == 0, ingested.stderr

        ok = self.run(
            "check-fit-quality", str(baseline_path), "--ledger", str(ledger_path)
        )
        assert ok.returncode == 0, ok.stderr
        assert "passed" in ok.stdout

        dropped_path = tmp_path / "dropped.json"
        dropped_path.write_text(json.dumps(fit_quality_doc(ari=0.67)))
        failed = self.run(
            "check-fit-quality", str(dropped_path), "--ledger", str(ledger_path)
        )
        assert failed.returncode == 1
        assert "FIT QUALITY REGRESSION" in failed.stderr

    def test_no_subcommand_prints_help(self):
        result = self.run()
        assert result.returncode == 2
        assert "ingest" in result.stdout
