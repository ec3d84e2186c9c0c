"""Serving-layer load benchmark — req/s, latency tails, batch occupancy.

An asyncio load generator drives ``POST /v1/classify`` against the
serve subsystem with a fixed request budget and concurrency, fires a
hot reload mid-run (the epoch swap must be invisible to clients), and
writes ``BENCH_SERVING.json`` (schema ``repro.bench/v1``) with
requests/second, p50/p99 latency, 503 counts and the dispatcher's mean
batch occupancy — the coalescing win the micro-batcher exists for. The
dispatcher holds no timed window: occupancy comes from the requests
that queue while a flush is scoring, which then leave together in the
next flush.

Run standalone (self-hosting: builds a fixture model and an in-process
server)::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        [--shape full|smoke] [--out PATH]

or against an already-running ``cluseq serve`` instance (the CI
serve-smoke job starts one with ``--ready-file``)::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --smoke --connect 127.0.0.1:8777

``--shape smoke`` (or ``--smoke``) shrinks the budget for CI and exits
non-zero when the acceptance gates fail: batch occupancy must exceed
1 (requests actually coalesced), no request may error, and the mid-run
hot swap must complete without a dropped response. The ledger-level
throughput/latency gate lives in
``python -m tools.benchtrack check-serving``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.serve.http import http_call
from tools.benchtrack.schema import write_bench_document

SCHEMA = "repro.bench/v1"
MODEL_NAME = "default"

#: Load shapes. ``requests`` is the total budget, ``concurrency`` the
#: simultaneous client count, ``seqs_per_request`` the batch each
#: client ships per call (server-side occupancy multiplies on top).
SHAPES = {
    "full": {"requests": 600, "concurrency": 16, "seqs_per_request": 2},
    "smoke": {"requests": 120, "concurrency": 8, "seqs_per_request": 2},
}


def build_fixture_model(target_dir: Path) -> str:
    """Fit a small two-cluster model and persist it for serving."""
    from repro.core.cluseq import CLUSEQ, CluseqParams
    from repro.core.persistence import save_result
    from repro.sequences.generators import generate_two_cluster_toy

    db = generate_two_cluster_toy(size_per_cluster=25, length=40, seed=5)
    result = CLUSEQ(
        CluseqParams(
            k=2, significance_threshold=3, similarity_threshold=1.2, seed=0
        )
    ).fit(db)
    path = target_dir / "bench_serving_model.json"
    save_result(result, str(path), alphabet=db.alphabet)
    return str(path)


def query_pool(model_path: str, count: int = 32) -> list[str]:
    """Request sequences drawn from the model's own alphabet."""
    import numpy as np

    from repro.core.persistence import load_result_with_alphabet

    _result, alphabet = load_result_with_alphabet(model_path)
    assert alphabet is not None
    rng = np.random.default_rng(31)
    symbols = list(alphabet.symbols)
    return [
        "".join(
            symbols[int(s)]
            for s in rng.integers(0, alphabet.size, int(length))
        )
        for length in rng.integers(20, 50, count)
    ]


async def run_load(
    host: str, port: int, spec: dict, queries: list[str]
) -> dict[str, Any]:
    """Drive the classify endpoint; returns raw load-side measurements."""
    total = int(spec["requests"])
    per_request = int(spec["seqs_per_request"])
    reload_at = total // 2
    latencies: list[float] = []
    epochs: set[int] = set()
    counters = {"rejected": 0, "errors": 0, "next": 0, "reloads": 0}

    async def worker() -> None:
        while True:
            index = counters["next"]
            counters["next"] += 1
            if index >= total:
                return
            if index == reload_at:
                # Hot swap under load: the epoch bump must be invisible
                # to every concurrent classify.
                reply = await http_call(
                    host, port, "POST", f"/admin/models/{MODEL_NAME}/reload"
                )
                if reply.status == 200:
                    counters["reloads"] += 1
                else:
                    counters["errors"] += 1
            batch = [
                queries[(index * per_request + i) % len(queries)]
                for i in range(per_request)
            ]
            started = time.perf_counter()
            try:
                reply = await http_call(
                    host, port, "POST", "/v1/classify", {"sequences": batch}
                )
            except (OSError, asyncio.TimeoutError):
                counters["errors"] += 1
                continue
            elapsed = time.perf_counter() - started
            if reply.status == 200:
                payload = reply.json()
                if len(payload["results"]) != per_request:
                    counters["errors"] += 1  # dropped/torn response
                    continue
                epochs.add(payload["epoch"])
                latencies.append(elapsed)
            elif reply.status == 503:
                counters["rejected"] += 1
            else:
                counters["errors"] += 1

    wall_start = time.perf_counter()
    await asyncio.gather(
        *(worker() for _ in range(int(spec["concurrency"])))
    )
    seconds = time.perf_counter() - wall_start
    stats_reply = await http_call(host, port, "GET", "/v1/stats")
    occupancy = stats_reply.json()["batching"]["mean_occupancy"]
    return {
        "seconds": seconds,
        "latencies": latencies,
        "epochs": sorted(epochs),
        "rejected": counters["rejected"],
        "errors": counters["errors"],
        "reloads": counters["reloads"],
        "batch_occupancy": occupancy,
    }


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))]


async def bench_against(
    host: str, port: int, spec: dict, queries: list[str]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One measured load run -> (result row, hot-swap summary)."""
    # Warm-up outside the timed window: first-flush cache builds are
    # steady-state costs everywhere else in the repo's benches too.
    await http_call(
        host, port, "POST", "/v1/classify", {"sequences": queries[:2]}
    )
    load = await run_load(host, port, spec, queries)
    completed = len(load["latencies"])
    row = {
        "mode": "classify",
        # Serving is in-process; the field stays in the row because it
        # is part of the ledger's configuration key for this bench.
        "workers": 0,
        "seconds": load["seconds"],
        "requests": completed,
        "rejected": load["rejected"],
        "errors": load["errors"],
        "req_per_second": completed / load["seconds"],
        "p50_ms": percentile(load["latencies"], 0.50) * 1000.0,
        "p99_ms": percentile(load["latencies"], 0.99) * 1000.0,
        "batch_occupancy": load["batch_occupancy"],
    }
    swap = {
        "reloads": load["reloads"],
        "epochs_observed": load["epochs"],
    }
    return row, swap


async def self_hosted(
    spec: dict, model_path: str
) -> tuple[dict[str, Any], dict[str, Any]]:
    from repro.serve import ModelRegistry, ServeApp

    registry = ModelRegistry()
    registry.load(MODEL_NAME, model_path)
    app = ServeApp(registry, max_batch=64, max_queue=512)
    host, port = await app.start()
    try:
        return await bench_against(host, port, spec, query_pool(model_path))
    finally:
        await app.close()


def run_bench(
    spec: dict,
    connect: str | None,
    model_path: str | None,
) -> dict[str, Any]:
    if connect is not None:
        host, _, port_text = connect.rpartition(":")
        if not host or not port_text.isdigit():
            raise SystemExit(f"--connect expects HOST:PORT, got {connect!r}")

        async def scenario() -> tuple[dict[str, Any], dict[str, Any]]:
            port = int(port_text)
            clusters = await http_call(host, port, "GET", "/v1/clusters")
            if clusters.status != 200:
                raise SystemExit(
                    f"server at {connect} has no model loaded "
                    f"({clusters.status})"
                )
            # The CI server serves the same fixture this script builds,
            # so the fixture's alphabet matches the live model's.
            queries = query_pool(model_path or _fixture(), count=32)
            return await bench_against(host, port, spec, queries)

        row, swap = asyncio.run(scenario())
    else:
        row, swap = asyncio.run(self_hosted(spec, model_path or _fixture()))
    return {
        "schema": SCHEMA,
        "bench": "serving",
        "workload": {
            key: spec[key]
            for key in ("requests", "concurrency", "seqs_per_request")
        },
        "hot_swap": swap,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": [row],
    }


_FIXTURE_CACHE: dict[str, str] = {}


def _fixture() -> str:
    if "path" not in _FIXTURE_CACHE:
        tmp = Path(tempfile.mkdtemp(prefix="bench-serving-"))
        _FIXTURE_CACHE["path"] = build_fixture_model(tmp)
    return _FIXTURE_CACHE["path"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default=None,
                        help="load shape (default: full)")
    parser.add_argument("--smoke", action="store_true",
                        help="alias for --shape smoke; also enforces the "
                        "occupancy/no-error acceptance gates")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="drive an already-running `cluseq serve` "
                        "instead of self-hosting")
    parser.add_argument("--model", default=None, metavar="PATH",
                        help="model to serve/query (default: a generated "
                        "fixture)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output JSON path (default: BENCH_SERVING.json "
                        "at the repo root)")
    args = parser.parse_args(argv)
    if args.smoke and args.shape not in (None, "smoke"):
        parser.error("--smoke conflicts with --shape " + args.shape)
    shape = args.shape or ("smoke" if args.smoke else "full")
    spec = SHAPES[shape]
    document = run_bench(spec, args.connect, args.model)
    out = Path(args.out) if args.out else (REPO_ROOT / "BENCH_SERVING.json")
    write_bench_document(out, document)
    row = document["results"][0]
    swap = document["hot_swap"]
    print(
        f"serving: {row['seconds']:.3f}s  "
        f"{row['req_per_second']:7.1f} req/s  "
        f"p50 {row['p50_ms']:.2f}ms  p99 {row['p99_ms']:.2f}ms  "
        f"occupancy {row['batch_occupancy']:.2f}  "
        f"rejected {row['rejected']}  errors {row['errors']}"
    )
    print(
        f"hot swap: {swap['reloads']} reload(s), "
        f"epochs observed {swap['epochs_observed']}"
    )
    print(f"written to {out} (shape={shape}, "
          f"cpus={document['environment']['cpu_count']})")
    if shape == "smoke":
        failures = []
        if row["batch_occupancy"] <= 1.0:
            failures.append(
                f"batch occupancy {row['batch_occupancy']:.2f} <= 1: "
                "requests did not coalesce"
            )
        if row["errors"]:
            failures.append(f"{row['errors']} request(s) errored")
        if not swap["reloads"]:
            failures.append("mid-run hot swap did not complete")
        if row["requests"] + row["rejected"] < spec["requests"]:
            failures.append("responses were dropped")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
