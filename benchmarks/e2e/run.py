"""End-to-end benchmark of the CLUSEQ reproduction.

One workload, as ``BENCHMARK.json``'s command runs it (the last stdout
line is the JSON result; ``--trace 1`` reports the per-layer metrics
instead of the end-to-end ones)::

    python3 benchmarks/e2e/run.py --workload fit-outliers --seed 0 \\
        --seconds 12 --trace 0

Several workloads, each in a fresh subprocess so heap state and peak RSS
do not leak between them, with a table of every metric::

    python3 benchmarks/e2e/run.py [--seed N] [--workloads a,b] [--trace] [--out DIR]

The metric names and units come from ``BENCHMARK.json``. See README.md
for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fit-outliers", "stream-drift", "shard-drift", "serve-classify", "serve-mixed")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload here")
    parser.add_argument(
        "--workloads",
        default=",".join(WORKLOAD_NAMES),
        help="comma-separated workloads, each in its own subprocess (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run (bare --trace means 1)",
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory for reports and span JSONL (default: benchmarks/e2e/out)",
    )
    args = parser.parse_args(argv)
    unknown = set(args.workloads.split(",")) - set(WORKLOAD_NAMES)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    return args


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def format_value(value: float) -> str:
    return f"{value:.6g}"


def print_report(report: dict, spec: dict) -> None:
    """The human-readable summary of one workload's report."""
    mode = "traced" if report["trace"] else "untraced"
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"{report['seconds']:g} s, {mode}) ==")
    names = [m["name"] for m in spec["end_to_end"]]
    # The uncorrected values and the host's speed, traced or not; the
    # share.* metrics are the self-time table below.
    names += [
        m["name"] for m in spec["per_layer"]
        if m["name"] in report["metrics"]
        and (report["trace"] or m["name"].startswith(("raw.", "host.")))
        and not m["name"].startswith("share.")
    ]
    print(f"  {'metric':<36}{'value':>14}  {'unit':<8}{'samples':>8}")
    for name in names:
        metric = report["metrics"].get(name)
        if metric is not None:
            print(f"  {name:<36}{format_value(metric['value']):>14}  "
                  f"{metric['unit']:<8}{metric['samples']:>8}")
    if report["trace"] and report["traced_wall"]:
        wall = report["traced_wall"]
        print(f"  self time per layer of the traced pass ({wall:.3f} s wall):")
        rows = sorted(report["self_seconds"].items(), key=lambda kv: -kv[1])
        rows.append(("other", wall - sum(report["self_seconds"].values())))
        for name, seconds in rows:
            print(f"    {name:<30}{seconds:>10.3f} s {100 * seconds / wall:>6.1f}%")
    for note in report["notes"]:
        print(f"  note: {note}")
    for name, passed, detail in report["gates"]:
        print(f"  gate {name}: {'ok' if passed else 'FAILED'} ({detail})")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print(f"  operations: {report['attempted']} attempted, {report['failed']} failed "
          f"(failed_frac {frac:g})")


def run_one(args: argparse.Namespace, spec: dict) -> int:
    """Run one workload in this process; the last stdout line is the result."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import serving
    import workloads

    runners = {
        "fit-outliers": workloads.fit_outliers,
        "stream-drift": workloads.stream_drift,
        "shard-drift": workloads.shard_drift,
        "serve-classify": serving.serve_classify,
        "serve-mixed": serving.serve_mixed,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_dir=args.out,
    )
    outcome = runners[args.workload](run)
    report = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "samples": m.samples}
            for name, m in outcome.metrics.items()
        },
        "gates": outcome.gates,
        "notes": outcome.notes,
        "self_seconds": outcome.self_seconds,
        "traced_wall": outcome.traced_wall,
    }
    with open(args.out / f"{run.workload}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print_report(report, spec)

    listed = spec["per_layer"] if run.trace else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        metric = outcome.metrics.get(entry["name"])
        if metric is None and not run.trace:
            print(f"error: {run.workload} produced no {entry['name']}", file=sys.stderr)
            return 1
        # A layer this workload never enters reads 0.
        value = metric.value if metric is not None else 0.0
        if not math.isfinite(value):
            print(f"error: {entry['name']} is {value}", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


def run_suite(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in a fresh subprocess, then one summary table."""
    started = time.perf_counter()
    failures = []
    for name in args.workloads.split(","):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
            "--trace", str(args.trace), "--out", str(args.out),
        ]
        begun = time.perf_counter()
        code = subprocess.run(command, timeout=900, check=False).returncode
        print(f"  ({name}: exit {code}, {time.perf_counter() - begun:.1f} s)\n", flush=True)
        if code != 0:
            failures.append(name)
    print(f"total run time {time.perf_counter() - started:.1f} s; "
          + ("all workloads correct" if not failures else f"FAILED: {', '.join(failures)}"))
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
