"""Command-line interface: ``cluseq`` (or ``python -m repro``).

Subcommands
-----------
``cluster``
    Cluster a FASTA or labelled-text file and print the clusters (and,
    when ground-truth labels are present, an evaluation).
``generate``
    Write a synthetic clustered database to disk, for experimentation.
``experiment``
    Run one of the paper-reproduction harnesses by name.
``stream``
    Online clustering: consume newline-delimited sequences from a file
    or stdin through the micro-batch streaming engine, optionally with
    a durable state directory (journal + checkpoints) that ``--resume``
    recovers from after a crash.
``serve``
    Clustering-as-a-service: load a saved model (or stream checkpoint)
    into the versioned registry and serve classify/ingest/clusters
    endpoints over HTTP with micro-batched scoring and hot reload.
    See docs/SERVING.md.
``telemetry``
    Inspect a telemetry JSON snapshot: summarize it as a table, or
    convert it to Prometheus text exposition.

Global observability flags (before the subcommand):

``--log-level LEVEL``
    Emit ``repro.*`` logs at LEVEL and above to stderr.
``--log-json``
    Switch those logs to JSON lines (implies ``--log-level INFO``
    unless a level was given).
``--metrics-out PATH``
    Collect metrics for the whole invocation, including the per-phase
    span timers, and write a ``repro.telemetry/v2`` JSON snapshot to
    PATH on exit; ``cluseq telemetry PATH --format prom`` renders it as
    Prometheus text.

Per-event records (one per finished span) come from ``--log-json
--log-level DEBUG``. See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable
from typing import TYPE_CHECKING, ContextManager

from . import __version__
from .core.cluseq import CLUSEQ, CluseqParams
from .evaluation.metrics import evaluate_clustering
from .evaluation.reporting import percent, print_table
from .obs import (
    MetricsRegistry,
    configure_logging,
    get_logger,
    use_registry,
    write_telemetry_json,
)
from .sequences.database import SequenceDatabase
from .sequences.generators import generate_clustered_database
from .sequences.io import read_fasta, read_labelled_text, write_labelled_text

if TYPE_CHECKING:
    from .stream import StreamingCluseq

#: experiment name → (runner, printer) import paths, resolved lazily.
EXPERIMENTS = {
    "table2": ("table2_model_comparison", "run_table2", "print_table2"),
    "table3": ("table3_protein_families", "run_table3", "print_table3"),
    "table4": ("table4_languages", "run_table4", "print_table4"),
    "table5": ("table5_initial_k", "run_table5", "print_table5"),
    "table6": ("table6_initial_t", "run_table6", "print_table6"),
    "fig3": ("fig3_similarity_histogram", "run_fig3", "print_fig3"),
    "fig4": ("fig4_pst_size", "run_fig4", "print_fig4"),
    "fig5": ("fig5_sample_size", "run_fig5", "print_fig5"),
    "fig6": ("fig6_scalability", "run_fig6", "print_fig6"),
    "ordering": ("ordering_policies", "run_ordering", "print_ordering"),
    "outliers": (
        "outlier_robustness",
        "run_outlier_robustness",
        "print_outlier_robustness",
    ),
    "modes": ("ablation_modes", "run_ablation_modes", "print_ablation_modes"),
    "pruning": ("ablation_pruning", "run_ablation_pruning", "print_ablation_pruning"),
    "smoothing": (
        "ablation_smoothing",
        "run_ablation_smoothing",
        "print_ablation_smoothing",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluseq",
        description="CLUSEQ sequence clustering (ICDE 2003 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        type=lambda level: level.upper(),
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="emit repro.* logs at LEVEL (DEBUG/INFO/...) to stderr",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="log as JSON lines instead of human-readable text",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="collect metrics during the run and write a repro.telemetry/v2 "
        "JSON snapshot to PATH",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cluster = subparsers.add_parser("cluster", help="cluster a sequence file")
    cluster.add_argument("input", help="FASTA (.fa/.fasta) or labelled-text file")
    cluster.add_argument("--format", choices=("auto", "fasta", "text"), default="auto")
    cluster.add_argument("-k", type=int, default=1, help="initial cluster count")
    cluster.add_argument(
        "-c",
        "--significance",
        type=int,
        default=5,
        help="significance threshold c (paper default 30 for huge data)",
    )
    cluster.add_argument(
        "-t", "--threshold", type=float, default=1.2, help="initial similarity t"
    )
    cluster.add_argument("--max-depth", type=int, default=6, help="PST depth L")
    cluster.add_argument("--max-iterations", type=int, default=25)
    cluster.add_argument("--min-unique", type=int, default=None)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--show-members", action="store_true", help="list member ids per cluster"
    )
    cluster.add_argument(
        "--save-model",
        metavar="PATH",
        default=None,
        help="write the fitted clustering (JSON) for later `classify` runs",
    )

    classify = subparsers.add_parser(
        "classify", help="assign new sequences with a saved model"
    )
    classify.add_argument("model", help="model file written by `cluster --save-model`")
    classify.add_argument("input", help="FASTA or labelled-text file to classify")
    classify.add_argument("--format", choices=("auto", "fasta", "text"), default="auto")
    classify.add_argument(
        "--absorb",
        action="store_true",
        help="absorb each joining sequence into its cluster's PST (§4.4) "
        "instead of read-only prediction",
    )
    classify.add_argument(
        "--save-model",
        metavar="PATH",
        default=None,
        help="write the (possibly absorbed) model back out after classifying",
    )

    stream = subparsers.add_parser(
        "stream", help="online clustering of a sequence stream"
    )
    stream.add_argument(
        "input",
        help="newline-delimited sequence file, or '-' to read stdin",
    )
    start = stream.add_mutually_exclusive_group()
    start.add_argument(
        "--model",
        metavar="PATH",
        default=None,
        help="warm-start from a model written by `cluster --save-model`",
    )
    start.add_argument(
        "--alphabet",
        metavar="SYMBOLS",
        default=None,
        help="cold-start with this symbol alphabet (e.g. 'acgt')",
    )
    stream.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="durable state directory (ingest journal + checkpoints)",
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help="recover from --state-dir (checkpoint + journal replay) "
        "before ingesting",
    )
    stream.add_argument("--batch-size", type=int, default=32)
    stream.add_argument(
        "--checkpoint-every",
        type=int,
        default=16,
        metavar="BATCHES",
        help="checkpoint interval in batches (0 = only the final one)",
    )
    stream.add_argument("--pool-size", type=int, default=512)
    stream.add_argument("--reseed-every", type=int, default=4, metavar="BATCHES")
    stream.add_argument("--reseed-k", type=int, default=2)
    stream.add_argument(
        "--decay-factor",
        type=float,
        default=1.0,
        help="PST count decay multiplier per decay event (1.0 = off)",
    )
    stream.add_argument("--decay-every", type=int, default=0, metavar="BATCHES")
    stream.add_argument("--consolidate-every", type=int, default=16, metavar="BATCHES")
    stream.add_argument(
        "-t", "--threshold", type=float, default=1.2,
        help="initial similarity threshold (cold start only)",
    )
    stream.add_argument(
        "-c", "--significance", type=int, default=5,
        help="significance threshold c (cold start only)",
    )
    stream.add_argument("--max-depth", type=int, default=6)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip per-batch journal fsync (faster, weaker durability)",
    )
    stream.add_argument(
        "--save-model",
        metavar="PATH",
        default=None,
        help="write the final clustering as a `classify`-compatible model",
    )

    serve = subparsers.add_parser(
        "serve", help="serve a saved model over HTTP (docs/SERVING.md)"
    )
    serve.add_argument(
        "model",
        help="model snapshot (`cluster --save-model`), stream checkpoint, "
        "or stream state directory",
    )
    serve.add_argument(
        "--name", default="default", help="registry name for the model"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8777, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="a flush takes queued requests until it holds N sequences",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=256,
        metavar="N",
        help="request queue bound; beyond it classify answers 503",
    )
    serve.add_argument(
        "--ready-file",
        metavar="PATH",
        default=None,
        help="write '<host> <port>' to PATH once listening (for CI/scripts)",
    )

    telemetry = subparsers.add_parser(
        "telemetry",
        help="summarize a --metrics-out snapshot, or render it as Prometheus text",
    )
    telemetry.add_argument(
        "path", help="repro.telemetry/v2 JSON written by --metrics-out"
    )
    telemetry.add_argument(
        "--format",
        choices=("table", "prom", "json"),
        default="table",
        help="table summary (default), Prometheus text, or normalized JSON",
    )

    generate = subparsers.add_parser(
        "generate", help="write a synthetic clustered database"
    )
    generate.add_argument("output", help="labelled-text output path")
    generate.add_argument("--sequences", type=int, default=200)
    generate.add_argument("--clusters", type=int, default=10)
    generate.add_argument("--length", type=int, default=120)
    generate.add_argument("--alphabet", type=int, default=12)
    generate.add_argument("--outliers", type=float, default=0.05)
    generate.add_argument("--seed", type=int, default=0)

    experiment = subparsers.add_parser(
        "experiment", help="run a paper-reproduction harness"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))

    return parser


def _load_database(path: str, file_format: str) -> SequenceDatabase:
    if file_format == "auto":
        lowered = path.lower()
        file_format = (
            "fasta" if lowered.endswith((".fa", ".fasta", ".faa")) else "text"
        )
    if file_format == "fasta":
        return read_fasta(path)
    return read_labelled_text(path)


def _command_cluster(args: argparse.Namespace) -> int:
    db = _load_database(args.input, args.format)
    params = CluseqParams(
        k=args.k,
        significance_threshold=args.significance,
        similarity_threshold=args.threshold,
        max_depth=args.max_depth,
        max_iterations=args.max_iterations,
        min_unique_members=args.min_unique,
        seed=args.seed,
    )
    result = CLUSEQ(params).fit(db)
    print(result.summary())
    rows = []
    for cluster in sorted(result.clusters, key=lambda cl: -cl.size):
        rows.append(
            (
                cluster.cluster_id,
                cluster.size,
                cluster.seed_index,
                cluster.pst.node_count,
            )
        )
    print_table(["cluster", "size", "seed seq", "PST nodes"], rows)
    if args.show_members:
        for cluster in result.clusters:
            members = " ".join(str(i) for i in sorted(cluster.members))
            print(f"cluster {cluster.cluster_id}: {members}")
    if any(label is not None for label in db.labels):
        report = evaluate_clustering(db.labels, result.labels())
        print(
            f"ground truth present: accuracy {percent(report.accuracy)}, "
            f"macro P {percent(report.macro_precision)}, "
            f"macro R {percent(report.macro_recall)}"
        )
    if args.save_model:
        from .core.persistence import save_result

        save_result(result, args.save_model, alphabet=db.alphabet)
        print(f"model written to {args.save_model}")
    return 0


def _command_classify(args: argparse.Namespace) -> int:
    from .core.persistence import load_result_with_alphabet, save_result
    from .sequences.alphabet import AlphabetError

    result, alphabet = load_result_with_alphabet(args.model)
    if alphabet is None:
        print("model file does not embed an alphabet; cannot classify", flush=True)
        return 1
    db = _load_database(args.input, args.format)
    for record in db:
        try:
            encoded = alphabet.encode(record.symbols)
        except AlphabetError:
            print(f"seq{record.sid}\t<unknown symbols>")
            continue
        if args.absorb:
            assignment = result.assign_and_absorb(encoded)
        else:
            assignment = result.predict(encoded)
        label = "outlier" if assignment is None else f"cluster{assignment}"
        print(f"seq{record.sid}\t{label}")
    if args.save_model:
        save_result(result, args.save_model, alphabet=alphabet)
        print(f"model written to {args.save_model}", file=sys.stderr)
    return 0


def _recover_or_report(state_dir: str) -> StreamingCluseq | None:
    """Recover a stream engine, mapping bad state dirs to clean errors.

    Backs ``stream --resume``: a missing, empty or corrupt state
    directory prints one operator-readable line on stderr and returns
    ``None`` (the caller exits 2) instead of surfacing a raw traceback.
    """
    from .stream import CheckpointError, JournalError, StreamingCluseq, ensure_resumable

    try:
        ensure_resumable(state_dir)
        return StreamingCluseq.recover(state_dir)
    except (CheckpointError, JournalError) as exc:
        print(
            f"error: cannot resume from {state_dir}: {exc}", file=sys.stderr
        )
        return None


def _command_stream(args: argparse.Namespace) -> int:
    from .core.persistence import load_result_with_alphabet, save_result
    from .sequences.alphabet import Alphabet
    from .stream import (
        DecayPolicy,
        StreamConfig,
        StreamingCluseq,
        read_encoded_lines,
    )

    config = StreamConfig(
        batch_size=args.batch_size,
        pool_size=args.pool_size,
        reseed_every=args.reseed_every,
        reseed_k=args.reseed_k,
        consolidate_every=args.consolidate_every,
        decay=DecayPolicy(
            factor=args.decay_factor, every_batches=args.decay_every
        ),
        checkpoint_every=args.checkpoint_every,
        journal_fsync=not args.no_fsync,
        seed=args.seed,
    )
    if args.resume:
        if not args.state_dir:
            print("--resume requires --state-dir", file=sys.stderr)
            return 2
        engine = _recover_or_report(args.state_dir)
        if engine is None:
            return 2
    elif args.model or args.alphabet:
        try:
            if args.model:
                result, alphabet = load_result_with_alphabet(args.model)
                engine = StreamingCluseq(
                    result, config=config, alphabet=alphabet,
                    state_dir=args.state_dir,
                )
            else:
                engine = StreamingCluseq.cold_start(
                    alphabet=Alphabet(args.alphabet),
                    similarity_threshold=args.threshold,
                    significance_threshold=args.significance,
                    max_depth=args.max_depth,
                    config=config,
                    state_dir=args.state_dir,
                )
        except FileExistsError as exc:
            print(f"error: {exc}; pass --resume to continue it", file=sys.stderr)
            return 2
    else:
        print(
            "pass --model, --alphabet, or --resume with --state-dir",
            file=sys.stderr,
        )
        return 2
    if engine.alphabet is None:
        print("no alphabet available; cannot encode the stream", file=sys.stderr)
        return 1
    # A resumed run keeps the checkpointed batch size, not the flag's:
    # run() batches by the engine's own config.
    with engine, _input_lines(args.input) as lines:
        engine.run(read_encoded_lines(lines, engine.alphabet))
        if args.state_dir:
            engine.checkpoint()
    stats = engine.stats()
    print_table(
        ["metric", "value"],
        [(key, value) for key, value in stats.to_dict().items()],
    )
    rows = sorted(
        (-c.size, c.cluster_id, c.created_at_iteration, c.pst.node_count)
        for c in engine.result.clusters
    )
    if rows:
        print_table(
            ["cluster", "size", "born (batch)", "PST nodes"],
            [(cid, -size, born, nodes) for size, cid, born, nodes in rows],
        )
    if args.save_model:
        save_result(engine.result, args.save_model, alphabet=engine.alphabet)
        print(f"model written to {args.save_model}", file=sys.stderr)
    return 0


def _input_lines(path: str) -> ContextManager[Iterable[str]]:
    """The lines of *path*, or of stdin for ``-``, to use in ``with``."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, encoding="utf-8")


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .obs import get_registry
    from .serve import ModelLoadError, ModelRegistry, ServeApp

    with contextlib.ExitStack() as stack:
        # /metrics needs a live registry even when the user passed no
        # telemetry flags; install a private one rather than serving an
        # empty exposition.
        if not get_registry().enabled:
            stack.enter_context(use_registry(MetricsRegistry()))
        registry = ModelRegistry()
        try:
            registry.load(args.name, args.model)
        except ModelLoadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

        async def _run() -> int:
            app = ServeApp(
                registry, max_batch=args.max_batch, max_queue=args.queue_size
            )
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass
            try:
                host, port = await app.start(args.host, args.port)
                print(
                    f"serving {args.name!r} on http://{host}:{port}",
                    file=sys.stderr,
                )
                if args.ready_file:
                    with open(args.ready_file, "w", encoding="utf-8") as handle:
                        handle.write(f"{host} {port}\n")
                await stop.wait()
                print("shutting down", file=sys.stderr)
            finally:
                await app.close()
            return 0

        return asyncio.run(_run())


def _command_generate(args: argparse.Namespace) -> int:
    ds = generate_clustered_database(
        num_sequences=args.sequences,
        num_clusters=args.clusters,
        avg_length=args.length,
        alphabet_size=args.alphabet,
        outlier_fraction=args.outliers,
        seed=args.seed,
    )
    write_labelled_text(ds.database, args.output)
    print(
        f"wrote {len(ds.database)} sequences "
        f"({args.clusters} clusters, {percent(args.outliers)} outliers) "
        f"to {args.output}"
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    import importlib

    module_name, runner_name, printer_name = EXPERIMENTS[args.name]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    rows = getattr(module, runner_name)()
    getattr(module, printer_name)(rows)
    return 0


def _command_telemetry(args: argparse.Namespace) -> int:
    import json

    from .obs import prometheus_from_snapshot

    try:
        with open(args.path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        print(
            f"error: {args.path} is not a telemetry document "
            "(expected a JSON object with a 'metrics' mapping)",
            file=sys.stderr,
        )
        return 1
    metrics = doc["metrics"]
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.format == "prom":
        sys.stdout.write(prometheus_from_snapshot(metrics))
        return 0
    print(f"schema: {doc.get('schema', '?')}")
    rows = []
    for name in sorted(metrics):
        entry = metrics[name]
        if not isinstance(entry, dict):
            continue
        kind = str(entry.get("type", "?"))
        value = entry.get("value")
        if value is None:
            value = entry.get("count", "")
        rows.append([name, kind, str(value)])
    print_table(["metric", "type", "value"], rows)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "cluster":
        return _command_cluster(args)
    if args.command == "classify":
        return _command_classify(args)
    if args.command == "stream":
        return _command_stream(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "telemetry":
        return _command_telemetry(args)
    if args.command == "generate":
        return _command_generate(args)
    if args.command == "experiment":
        return _command_experiment(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _check_out_dir(parser: argparse.ArgumentParser, path: str) -> None:
    # Fail fast on an unwritable telemetry path rather than discovering
    # it after minutes of clustering work.
    out_dir = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(out_dir):
        parser.error(f"--metrics-out: directory does not exist: {out_dir}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level or args.log_json:
        configure_logging(
            level=args.log_level or "INFO", json_lines=args.log_json
        )
    if not args.metrics_out:
        return _dispatch(args)

    _check_out_dir(parser, args.metrics_out)
    registry = MetricsRegistry()
    with use_registry(registry):
        code = _dispatch(args)
    context = {"argv": list(argv) if argv is not None else sys.argv[1:]}
    write_telemetry_json(args.metrics_out, registry, context=context)
    if args.log_json:
        # keep stderr valid JSON Lines when it carries the event records
        get_logger("cli").info(
            "telemetry written", extra={"path": args.metrics_out}
        )
    else:
        print(f"telemetry written to {args.metrics_out}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
