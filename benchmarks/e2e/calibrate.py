"""Calibrate the end-to-end benchmark's regression bounds.

Runs every workload ``--runs`` times, each run a fresh ``run.py``
process with its own ``--seed``, seeds interleaved across workloads so
slow drift in the host's speed spreads over all of them. Stores each
run's result line and report metrics as JSONL under ``calibration/``
and prints, per end-to-end metric and workload, the median, the
interquartile range and the max/min spread as shares of the median;
given a second set of runs, also how far each median moved from the
first set's::

    python3 benchmarks/e2e/calibrate.py [--runs 10] [--first-seed 0] [--seconds S] [--out F]
    python3 benchmarks/e2e/calibrate.py --analyze calibration/runs-a.jsonl calibration/runs-b.jsonl

It exits 1 when a run failed, a spread (``setup_s`` aside) is wider
than its metric's bound, or the second set's median is worse than the
first's by more than the bound. A bound should exceed three times the
widest interquartile range of its metric over the workloads
(:func:`suggested_bound`); ``BENCHMARK.json`` records the bounds chosen.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from measure import median, relative_iqr, within_bound, worsening
from run import HERE, WORKLOAD_NAMES, load_spec

CALIBRATION = HERE / "calibration"
#: The range of a regression bound, as a share of the median: at least
#: 5% so that a bound is never tighter than run-to-run drift, at most
#: the 25% that ``BENCHMARK.json`` allows.
MIN_BOUND = 0.05
MAX_BOUND = 0.25


def collect(
    seeds: range, seconds: float | None, workloads: list[str], path: Path
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        for seed in seeds:
            for workload in workloads:
                command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "0"]
                if seconds is not None:
                    command += ["--seconds", f"{seconds:g}"]
                started = time.perf_counter()
                done = subprocess.run(
                    command, capture_output=True, text=True, timeout=900, check=False
                )
                elapsed = time.perf_counter() - started
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
                with open(HERE / "out" / f"{workload}.json", encoding="utf-8") as report:
                    # Every metric of the run, the uncorrected timings included.
                    reported = {
                        name: metric["value"]
                        for name, metric in json.load(report)["metrics"].items()
                    }
                row = {"workload": workload, "seed": seed, "exit": done.returncode,
                       "run_seconds": elapsed, "result": result, "report": reported}
                handle.write(json.dumps(row) + "\n")
                handle.flush()
                print(f"{workload:<15} seed {seed}: exit {done.returncode}, {elapsed:.1f} s",
                      flush=True)


def suggested_bound(name: str, widest_iqr: float) -> float:
    """max(5%, 3 x the widest relative IQR), at most 25%. ``setup_s``
    always gets 25%, the largest bound: its spread is not held to it."""
    if name == "setup_s":
        return MAX_BOUND
    return min(MAX_BOUND, max(MIN_BOUND, 3 * widest_iqr))


def analyze(paths: list[Path]) -> dict:
    """Spread of each end-to-end metric per workload in each runs file
    and, given two files, how far the second set's median moved.

    ``problems`` lists every failed run, every spread wider than its
    metric's bound (``setup_s`` exempt) and every median that moved by
    more than the bound.
    """
    spec = load_spec()
    sets = []
    problems: list[str] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        problems += [
            f"failed run: {path.name} {row['workload']} seed {row['seed']} exit {row['exit']}"
            for row in rows
            if row["result"] is None or not row["result"]["correct"]
        ]
        sets.append(rows)
    summary: dict = {"sources": [path.name for path in paths], "metrics": {},
                     "run_seconds": {}, "problems": problems}
    print(f"{'metric':<13}{'workload':<16}{'set':>4}{'n':>4}{'median':>12}{'iqr%':>7}"
          f"{'max/min%':>9}{'vs set 1%':>10}")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        per_workload: dict = {}
        for workload in WORKLOAD_NAMES:
            for index, rows in enumerate(sets, start=1):
                values = [
                    row["result"]["metrics"][name]["value"]
                    for row in rows
                    if row["workload"] == workload and row["result"] is not None
                ]
                if len(values) < 4:
                    continue
                stats = {
                    "set": index,
                    "n": len(values),
                    "median": median(values),
                    "relative_iqr": relative_iqr(values),
                    "max_over_min": max(values) / min(values) - 1,
                }
                label = f"{name} on {workload}, set {index}"
                if name != "setup_s" and stats["relative_iqr"] > entry["bound"]:
                    problems.append(f"{label}: IQR wider than the bound")
                sets_of_workload = per_workload.setdefault(workload, [])
                if sets_of_workload:
                    base = sets_of_workload[0]["median"]
                    stats["worsening_vs_set_1"] = worsening(
                        base, stats["median"], entry["better"]
                    )
                    if not within_bound(base, stats["median"], entry["better"],
                                        entry["bound"]):
                        problems.append(f"{label}: median worse than set 1's beyond the bound")
                sets_of_workload.append(stats)
                moved = stats.get("worsening_vs_set_1")
                print(f"{name:<13}{workload:<16}{index:>4}{stats['n']:>4}"
                      f"{stats['median']:>12.5g}{100 * stats['relative_iqr']:>7.1f}"
                      f"{100 * stats['max_over_min']:>9.1f}"
                      + (f"{100 * moved:>10.1f}" if moved is not None else ""))
        all_stats = [s for runs in per_workload.values() for s in runs]
        widest = max((s["relative_iqr"] for s in all_stats), default=0.0)
        worst_move = max((s.get("worsening_vs_set_1", 0.0) for s in all_stats), default=0.0)
        summary["metrics"][name] = {
            "bound": entry["bound"],
            "suggested_bound": suggested_bound(name, widest),
            "widest_relative_iqr": widest,
            "worst_worsening_vs_set_1": worst_move,
            "workloads": per_workload,
        }
        print(f"{name:<13}bound {entry['bound']:.3f} (suggested "
              f"{suggested_bound(name, widest):.3f}); widest IQR {100 * widest:.1f}%, "
              f"worst move {100 * worst_move:.1f}%\n")
    for workload in WORKLOAD_NAMES:
        times = [row["run_seconds"] for rows in sets for row in rows
                 if row["workload"] == workload]
        if times:
            summary["run_seconds"][workload] = median(times)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--analyze", type=Path, nargs="+", default=None,
                        help="summarize one or two existing runs JSONL files instead")
    parser.add_argument("--out", type=Path, default=CALIBRATION / "runs.jsonl")
    args = parser.parse_args(argv)
    paths = args.analyze
    if paths is None:
        paths = [args.out]
        seeds = range(args.first_seed, args.first_seed + args.runs)
        collect(seeds, args.seconds, args.workloads.split(","), args.out)
    summary = analyze(paths)
    with open(paths[-1].with_suffix(".summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return 1 if summary["problems"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
