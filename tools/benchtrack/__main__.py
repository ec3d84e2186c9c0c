"""CLI for the bench trajectory ledger.

Subcommands::

    python -m tools.benchtrack ingest BENCH.json [--ledger L] [--report R]
    python -m tools.benchtrack report [--ledger L] [--out R]
    python -m tools.benchtrack check BENCH.json [--ledger L]
                                     [--metric M] [--tolerance T]
    python -m tools.benchtrack check-serving BENCH.json [--ledger L]
                                     [--tolerance T] [--latency-tolerance T]
    python -m tools.benchtrack check-fit-quality BENCH.json [--ledger L]

``--check BENCH.json`` (no subcommand) is sugar for ``check`` with the
defaults — the form CI uses. ``check --metric seqs_per_second`` is
the shard gate: each shard count is compared with the same shard
count in the ledger baseline. ``check-serving`` gates the serving
bench against its ledger baseline on both throughput (req/s floor)
and tail latency (p99 ceiling). ``check-fit-quality`` gates each
draw's ARI of the fit-quality bench against the same draw in its
baseline. Every gate fails when it finds its baseline but no row to
compare with it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .ledger import (
    DEFAULT_LATENCY_TOLERANCE,
    DEFAULT_METRIC,
    DEFAULT_SERVING_TOLERANCE,
    DEFAULT_TOLERANCE,
    check_fit_quality,
    check_regressions,
    check_serving,
    ingest,
    load_ledger,
    render_report,
    save_ledger,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_LEDGER = REPO_ROOT / "BENCH_TRAJECTORY.json"
DEFAULT_REPORT = REPO_ROOT / "BENCH_TRAJECTORY.md"


def _add_ledger_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        default=str(DEFAULT_LEDGER),
        metavar="PATH",
        help=f"ledger JSON path (default: {DEFAULT_LEDGER.name} at repo root)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchtrack", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--check",
        dest="check_sugar",
        metavar="BENCH_JSON",
        default=None,
        help="shorthand for the `check` subcommand with default settings",
    )
    subparsers = parser.add_subparsers(dest="command")

    cmd_ingest = subparsers.add_parser(
        "ingest", help="append a bench document to the ledger"
    )
    cmd_ingest.add_argument("bench_json", help="repro.bench/v1 document")
    _add_ledger_flag(cmd_ingest)
    cmd_ingest.add_argument(
        "--report",
        default=str(DEFAULT_REPORT),
        metavar="PATH",
        help="markdown report to regenerate (default: "
        f"{DEFAULT_REPORT.name}; pass empty string to skip)",
    )

    cmd_report = subparsers.add_parser(
        "report", help="regenerate the markdown trajectory report"
    )
    _add_ledger_flag(cmd_report)
    cmd_report.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report here instead of stdout",
    )

    cmd_check = subparsers.add_parser(
        "check", help="fail when a bench document regresses vs the ledger"
    )
    cmd_check.add_argument("bench_json", help="repro.bench/v1 document")
    _add_ledger_flag(cmd_check)
    cmd_check.add_argument(
        "--metric",
        default=DEFAULT_METRIC,
        help=f"result field to compare (default: {DEFAULT_METRIC})",
    )
    cmd_check.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop before failing "
        f"(default: {DEFAULT_TOLERANCE})",
    )

    cmd_serving = subparsers.add_parser(
        "check-serving",
        help="fail when a serving bench regresses vs the ledger "
        "(req/s floor and p99 latency ceiling)",
    )
    cmd_serving.add_argument("bench_json", help="repro.bench/v1 document")
    _add_ledger_flag(cmd_serving)
    cmd_serving.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_SERVING_TOLERANCE,
        help="allowed fractional req/s drop before failing "
        f"(default: {DEFAULT_SERVING_TOLERANCE})",
    )
    cmd_serving.add_argument(
        "--latency-tolerance",
        type=float,
        default=DEFAULT_LATENCY_TOLERANCE,
        help="allowed fractional p99 rise before failing "
        f"(default: {DEFAULT_LATENCY_TOLERANCE} — tail latency is noisy)",
    )

    cmd_fit = subparsers.add_parser(
        "check-fit-quality",
        help="fail when a draw's ARI in a fit-quality bench drops vs the ledger",
    )
    cmd_fit.add_argument("bench_json", help="repro.bench/v1 document")
    _add_ledger_flag(cmd_fit)
    return parser


def _load_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: bench document must be a JSON object")
    return doc


def _command_ingest(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.ledger)
    doc = _load_doc(args.bench_json)
    entry = ingest(ledger, doc, source=Path(args.bench_json).name)
    save_ledger(args.ledger, ledger)
    print(
        f"ingested {args.bench_json} "
        f"({entry['bench']}, sha {str(entry.get('git_sha'))[:10]}) "
        f"-> {args.ledger} ({len(ledger['entries'])} entries)"
    )
    if args.report:
        Path(args.report).write_text(render_report(ledger), encoding="utf-8")
        print(f"report regenerated at {args.report}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.ledger)
    text = render_report(ledger)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _command_check(
    args: argparse.Namespace,
    metric: Optional[str] = None,
    tolerance: Optional[float] = None,
) -> int:
    ledger = load_ledger(args.ledger)
    doc = _load_doc(args.bench_json)
    messages = check_regressions(
        ledger,
        doc,
        metric=metric if metric is not None else args.metric,
        tolerance=tolerance if tolerance is not None else args.tolerance,
    )
    if messages:
        for message in messages:
            print(f"REGRESSION: {message}", file=sys.stderr)
        return 1
    print(f"benchtrack check passed: {args.bench_json} vs {args.ledger}")
    return 0


def _command_check_serving(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.ledger)
    doc = _load_doc(args.bench_json)
    messages = check_serving(
        ledger,
        doc,
        tolerance=args.tolerance,
        latency_tolerance=args.latency_tolerance,
    )
    if messages:
        for message in messages:
            print(f"SERVING REGRESSION: {message}", file=sys.stderr)
        return 1
    print(f"benchtrack check-serving passed: {args.bench_json} vs {args.ledger}")
    return 0


def _command_check_fit_quality(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.ledger)
    doc = _load_doc(args.bench_json)
    messages = check_fit_quality(ledger, doc)
    if messages:
        for message in messages:
            print(f"FIT QUALITY REGRESSION: {message}", file=sys.stderr)
        return 1
    print(f"benchtrack check-fit-quality passed: {args.bench_json} vs {args.ledger}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.check_sugar is not None:
        if args.command is not None:
            parser.error("--check cannot be combined with a subcommand")
        args.bench_json = args.check_sugar
        args.ledger = str(DEFAULT_LEDGER)
        return _command_check(
            args, metric=DEFAULT_METRIC, tolerance=DEFAULT_TOLERANCE
        )
    if args.command == "ingest":
        return _command_ingest(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "check":
        return _command_check(args)
    if args.command == "check-serving":
        return _command_check_serving(args)
    if args.command == "check-fit-quality":
        return _command_check_fit_quality(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
