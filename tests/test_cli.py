"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.sequences.database import SequenceDatabase
from repro.sequences.generators import generate_two_cluster_toy
from repro.sequences.io import write_fasta, write_labelled_text


@pytest.fixture
def toy_text_file(tmp_path):
    db = generate_two_cluster_toy(size_per_cluster=15, length=30, seed=7)
    path = tmp_path / "toy.txt"
    write_labelled_text(db, path)
    return str(path)


@pytest.fixture
def toy_fasta_file(tmp_path):
    db = SequenceDatabase.from_strings(
        ["ACGTACGTAC", "CGTACGTACG", "TTTTGGGGTT", "GGTTTTGGTT"],
        labels=["x", "x", "y", "y"],
    )
    path = tmp_path / "toy.fasta"
    write_fasta(db, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster", "x.txt"])
        assert args.k == 1
        assert args.significance == 5
        assert args.format == "auto"

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.name == "table2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "bogus"])

    def test_experiments_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table2", "table3", "table4", "table5", "table6",
            "fig3", "fig4", "fig5", "fig6", "ordering", "outliers",
            "modes", "pruning", "smoothing",
        }

    def test_shard_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["shard", "-", "--alphabet", "ab"])
        assert exc.value.code == 2
        assert "invalid choice: 'shard'" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_text_file(self, toy_text_file, capsys):
        code = main(
            [
                "cluster",
                toy_text_file,
                "-k", "2",
                "-c", "2",
                "--min-unique", "3",
                "--max-iterations", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CLUSEQ" in out
        assert "accuracy" in out  # labels present -> evaluation printed

    def test_cluster_fasta_autodetect(self, toy_fasta_file, capsys):
        code = main(
            [
                "cluster",
                toy_fasta_file,
                "-k", "2",
                "-c", "2",
                "--min-unique", "1",
                "--max-iterations", "5",
            ]
        )
        assert code == 0
        assert "cluster" in capsys.readouterr().out

    def test_show_members(self, toy_text_file, capsys):
        main(
            [
                "cluster", toy_text_file,
                "-k", "2", "-c", "2", "--min-unique", "3",
                "--max-iterations", "5", "--show-members",
            ]
        )
        assert "cluster " in capsys.readouterr().out


class TestModelPersistenceFlow:
    def test_save_and_classify(self, toy_text_file, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "cluster", toy_text_file,
                "-k", "2", "-c", "2", "--min-unique", "3",
                "--max-iterations", "10",
                "--save-model", str(model_path),
            ]
        )
        assert code == 0
        assert model_path.exists()
        capsys.readouterr()

        code = main(["classify", str(model_path), toy_text_file])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 30  # one line per sequence
        assert all("\t" in line for line in out)
        assert any("cluster" in line for line in out)

    def test_classify_model_without_alphabet(self, toy_text_file, tmp_path, capsys):
        import json

        from repro.core.cluseq import cluster_sequences
        from repro.core.persistence import result_to_dict
        from repro.sequences.io import read_labelled_text

        db = read_labelled_text(toy_text_file)
        result = cluster_sequences(
            db, k=2, significance_threshold=2, min_unique_members=3,
            max_iterations=5, seed=0,
        )
        model_path = tmp_path / "no_alphabet.json"
        model_path.write_text(json.dumps(result_to_dict(result)))
        code = main(["classify", str(model_path), toy_text_file])
        assert code == 1
        assert "alphabet" in capsys.readouterr().out


class TestClassifyAbsorb:
    def test_absorb_grows_member_counts(self, toy_text_file, tmp_path, capsys):
        from repro.core.persistence import load_result

        model_path = tmp_path / "model.json"
        main(
            [
                "cluster", toy_text_file,
                "-k", "2", "-c", "2", "--min-unique", "3",
                "--max-iterations", "10",
                "--save-model", str(model_path),
            ]
        )
        absorbed_path = tmp_path / "absorbed.json"
        capsys.readouterr()
        code = main(
            [
                "classify", str(model_path), toy_text_file,
                "--absorb", "--save-model", str(absorbed_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 30
        before = load_result(model_path)
        after = load_result(absorbed_path)
        joined = sum(1 for line in out if "cluster" in line)
        assert joined > 0
        members_before = sum(c.size for c in before.clusters)
        members_after = sum(c.size for c in after.clusters)
        assert members_after == members_before + joined
        # Absorbed joiners must live at fresh indices, never overwrite.
        assert len(after.assignments) == len(before.assignments) + 30

    def test_without_absorb_model_is_untouched(
        self, toy_text_file, tmp_path, capsys
    ):
        from repro.core.persistence import load_result

        model_path = tmp_path / "model.json"
        main(
            [
                "cluster", toy_text_file,
                "-k", "2", "-c", "2", "--min-unique", "3",
                "--max-iterations", "10",
                "--save-model", str(model_path),
            ]
        )
        resaved = tmp_path / "resaved.json"
        capsys.readouterr()
        code = main(
            [
                "classify", str(model_path), toy_text_file,
                "--save-model", str(resaved),
            ]
        )
        assert code == 0
        before = load_result(model_path)
        after = load_result(resaved)
        assert len(after.assignments) == len(before.assignments)
        assert [c.size for c in after.clusters] == [
            c.size for c in before.clusters
        ]


class TestStreamCommand:
    @pytest.fixture
    def stream_file(self, tmp_path):
        from repro.stream import drifting_markov_stream

        stream = drifting_markov_stream(
            120, 60, alphabet_size=6, concentration=0.05, seed=7
        )
        symbols = "abcdef"
        path = tmp_path / "stream.txt"
        path.write_text(
            "\n".join(
                "".join(symbols[s] for s in seq) for seq in stream.sequences
            )
            + "\n"
        )
        return str(path)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["stream", "-"])
        assert args.input == "-"
        assert args.batch_size == 32
        assert args.checkpoint_every == 16
        assert not args.resume

    def test_model_and_alphabet_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "x.txt", "--model", "m.json", "--alphabet", "ab"]
            )

    def test_cold_start_requires_alphabet_or_model(self, stream_file, capsys):
        code = main(["stream", stream_file])
        assert code == 2
        assert "--model" in capsys.readouterr().err

    def test_resume_requires_state_dir(self, stream_file, capsys):
        code = main(["stream", stream_file, "--resume"])
        assert code == 2
        assert "--state-dir" in capsys.readouterr().err

    def test_cold_start_stream_run(self, stream_file, tmp_path, capsys):
        model_path = tmp_path / "streamed.json"
        code = main(
            [
                "stream", stream_file,
                "--alphabet", "abcdef",
                "--batch-size", "16",
                "-t", "10", "-c", "3", "--max-depth", "4",
                "--reseed-every", "2",
                "--save-model", str(model_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sequences" in out
        assert "120" in out
        assert model_path.exists()

    def test_durable_run_then_resume(self, stream_file, tmp_path, capsys):
        state_dir = tmp_path / "state"
        args = [
            "stream", stream_file,
            "--alphabet", "abcdef",
            "--state-dir", str(state_dir),
            "--batch-size", "16",
            "-t", "10", "-c", "3", "--max-depth", "4",
        ]
        assert main(args) == 0
        assert (state_dir / "checkpoint.json").exists()
        assert (state_dir / "journal.jsonl").exists()
        capsys.readouterr()
        code = main(
            [
                "stream", stream_file,
                "--state-dir", str(state_dir),
                "--resume",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "240" in out  # both passes counted
        # The resumed pass keeps the checkpointed batch size of 16:
        # 120 sequences per pass is 8 batches each.
        assert re.search(r"^batches\s+16\s*$", out, re.MULTILINE)

    def test_fresh_run_on_a_used_state_dir_fails_cleanly(
        self, stream_file, tmp_path, capsys
    ):
        """A run without --resume does not append to another run's
        journal: it exits 2 with one line and writes nothing."""
        state_dir = tmp_path / "state"
        args = [
            "stream", stream_file,
            "--alphabet", "abcdef",
            "--state-dir", str(state_dir),
            "-t", "10", "-c", "3", "--max-depth", "4",
        ]
        assert main(args) == 0
        before = {path.name: path.read_bytes() for path in state_dir.iterdir()}
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "--resume" in err
        assert {
            path.name: path.read_bytes() for path in state_dir.iterdir()
        } == before

    def test_resume_missing_state_dir_fails_cleanly(
        self, stream_file, tmp_path, capsys
    ):
        """Regression: --resume against a nonexistent dir used to dump
        a raw traceback; it must exit 2 with a one-line error."""
        code = main(
            [
                "stream", stream_file,
                "--state-dir", str(tmp_path / "never-created"),
                "--resume",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "Traceback" not in err

    def test_resume_empty_state_dir_fails_cleanly(
        self, stream_file, tmp_path, capsys
    ):
        state_dir = tmp_path / "empty"
        state_dir.mkdir()
        code = main(
            [
                "stream", stream_file,
                "--state-dir", str(state_dir),
                "--resume",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "nothing to resume" in err

    @pytest.mark.parametrize(
        ("damage", "reasons"),
        [
            ("unknown-config-key", ("checkpoint.json", "bogus")),
            ("missing-counters", ("checkpoint.json", "counters")),
            ("journal-gap", ("journal.jsonl", "expected batch 1, found 2")),
        ],
        ids=["unknown-config-key", "missing-counters", "journal-gap"],
    )
    def test_resume_damaged_state_fails_cleanly(
        self, stream_file, tmp_path, capsys, damage, reasons
    ):
        """A state dir whose checkpoint or journal does not hold a usable
        state exits 2 with one line instead of a traceback."""
        import json

        from repro.sequences.alphabet import Alphabet
        from repro.stream import StreamConfig, StreamingCluseq

        state_dir = tmp_path / "state"
        engine = StreamingCluseq.cold_start(
            alphabet=Alphabet("abcdef"),
            config=StreamConfig(batch_size=4),
            state_dir=state_dir,
        )
        for batch in range(3):
            engine.ingest_batch([[batch % 6, 1, 2, 3]] * 4)
        engine.close()
        checkpoint = state_dir / "checkpoint.json"
        journal = state_dir / "journal.jsonl"
        if damage == "journal-gap":
            lines = journal.read_text().splitlines(keepends=True)
            # Header, then batches 0, 1, 2: drop batch 1.
            journal.write_text("".join(lines[:2] + lines[3:]))
        else:
            payload = json.loads(checkpoint.read_text())
            if damage == "unknown-config-key":
                payload["config"]["bogus"] = 1
            else:
                del payload["counters"]
            checkpoint.write_text(json.dumps(payload))
        code = main(
            ["stream", stream_file, "--state-dir", str(state_dir), "--resume"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err
        for reason in reasons:
            assert reason in err
        assert "Traceback" not in err

    def test_stream_from_stdin(self, stream_file, capsys, monkeypatch):
        import io
        import sys as _sys

        text = Path(stream_file).read_text(encoding="utf-8")
        monkeypatch.setattr(_sys, "stdin", io.StringIO(text))
        code = main(
            [
                "stream", "-",
                "--alphabet", "abcdef",
                "--batch-size", "16",
                "-t", "10", "-c", "3", "--max-depth", "4",
            ]
        )
        assert code == 0
        assert "sequences" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "synth.txt"
        code = main(
            [
                "generate", str(out_path),
                "--sequences", "30", "--clusters", "3",
                "--length", "20", "--alphabet", "6",
            ]
        )
        assert code == 0
        assert out_path.exists()
        assert "wrote 30 sequences" in capsys.readouterr().out
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 30
        assert all("\t" in line for line in lines)


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def _restore_logging(self):
        yield
        from repro.obs import reset_logging

        reset_logging()

    def test_parser_accepts_global_flags(self):
        args = build_parser().parse_args(
            ["--log-level", "DEBUG", "--log-json",
             "--metrics-out", "m.json", "cluster", "x.txt"]
        )
        assert args.log_level == "DEBUG"
        assert args.log_json
        assert args.metrics_out == "m.json"

    def test_flags_default_off(self):
        args = build_parser().parse_args(["cluster", "x.txt"])
        assert args.log_level is None
        assert not args.log_json
        assert args.metrics_out is None

    def test_log_level_emits_run_logs(self, toy_text_file, capsys):
        code = main(
            ["--log-level", "INFO", "cluster", toy_text_file, "-k", "2", "-c", "2"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "repro.core.cluseq" in err
        assert "iteration" in err

    def test_log_json_emits_json_lines(self, toy_text_file, capsys):
        import json

        code = main(
            ["--log-json", "cluster", toy_text_file, "-k", "2", "-c", "2"]
        )
        assert code == 0
        err = capsys.readouterr().err
        records = [json.loads(line) for line in err.strip().splitlines()]
        assert records, "expected at least one JSON log line"
        assert all("ts" in r and "level" in r and "logger" in r for r in records)
        assert any(r["logger"] == "repro.core.cluseq" for r in records)

    def test_no_flags_stays_silent(self, toy_text_file, capsys):
        code = main(["cluster", toy_text_file, "-k", "2", "-c", "2"])
        assert code == 0
        assert capsys.readouterr().err == ""


class TestTelemetryV2Flags:
    @pytest.fixture(autouse=True)
    def _restore_logging(self):
        yield
        from repro.obs import reset_logging

        reset_logging()

    def test_metrics_out_writes_v2_and_prom(self, toy_text_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "telemetry.json"
        code = main(
            ["--metrics-out", str(out_path),
             "cluster", toy_text_file, "-k", "2", "-c", "2"]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.telemetry/v2"
        assert "profile" not in doc
        # the registry was active: phase timings were collected (the
        # fit scores with the reference DP, so no kernel timer exists)
        assert doc["metrics"]["span.cluseq.calibrate"]["count"] > 0
        assert not any(name.startswith("backend.") for name in doc["metrics"])
        assert not any(name.startswith("profile.") for name in doc["metrics"])
        assert "telemetry written to" in capsys.readouterr().err
        assert main(["telemetry", str(out_path), "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE" in prom
        assert "# TYPE repro_span_cluseq_calibrate_seconds" in prom

    def test_stream_telemetry_flags(self, tmp_path, capsys):
        import json

        db = generate_two_cluster_toy(size_per_cluster=12, length=25, seed=3)
        stream_path = tmp_path / "stream.txt"
        write_labelled_text(db, stream_path)
        out_path = tmp_path / "telemetry.json"
        code = main(
            ["--log-json", "--log-level", "DEBUG",
             "--metrics-out", str(out_path),
             "stream", str(stream_path), "--alphabet", "ab",
             "--batch-size", "8", "-c", "2"]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        batches = doc["metrics"]["stream.batches"]["value"]
        assert batches > 0
        # stderr is pure JSON Lines: every line is one event record
        records = [
            json.loads(line) for line in capsys.readouterr().err.splitlines()
        ]
        assert any(
            r["message"] == "telemetry written" and r["path"] == str(out_path)
            for r in records
        )
        batch_spans = [r for r in records if r.get("span") == "stream.batch"]
        # one span event per micro-batch, carrying its timings
        assert len(batch_spans) == batches
        assert all(r["wall_seconds"] >= 0.0 for r in batch_spans)
        assert all("cpu_seconds" in r for r in batch_spans)

    def test_metrics_out_writes_v2(self, toy_text_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "metrics.json"
        code = main(
            ["--metrics-out", str(out_path),
             "cluster", toy_text_file, "-k", "2", "-c", "2"]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["schema"] == "repro.telemetry/v2"
        capsys.readouterr()

    def test_metrics_out_unwritable_dir_fails_fast(
        self, toy_text_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "missing"
        with pytest.raises(SystemExit):
            main(["--metrics-out", str(out_dir / "telemetry.json"),
                  "cluster", toy_text_file, "-k", "2", "-c", "2"])
        assert "--metrics-out: directory does not exist" in capsys.readouterr().err
        assert not out_dir.exists()


class TestTelemetrySubcommand:
    def _write_v2(self, tmp_path):
        from repro.obs import MetricsRegistry, write_telemetry_json

        registry = MetricsRegistry()
        registry.counter("stream.batches").inc(5)
        return write_telemetry_json(tmp_path / "telemetry.json", registry)

    def test_table_format(self, tmp_path, capsys):
        path = self._write_v2(tmp_path)
        assert main(["telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro.telemetry/v2" in out
        assert "stream.batches" in out

    def test_prom_format(self, tmp_path, capsys):
        path = self._write_v2(tmp_path)
        assert main(["telemetry", str(path), "--format", "prom"]) == 0
        assert "repro_stream_batches_total 5" in capsys.readouterr().out

    def test_json_format_roundtrips(self, tmp_path, capsys):
        import json

        path = self._write_v2(tmp_path)
        assert main(["telemetry", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["stream.batches"]["value"] == 5

    def test_rejects_non_telemetry_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no": "metrics"}')
        assert main(["telemetry", str(bad)]) == 1
        assert "not a telemetry document" in capsys.readouterr().err

    def test_rejects_missing_file(self, tmp_path, capsys):
        assert main(["telemetry", str(tmp_path / "gone.json")]) == 1
        assert "cannot read" in capsys.readouterr().err
