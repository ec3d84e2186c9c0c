"""Bench-trajectory ledger — the perf-regression memory of the repo.

Every benchmark run that writes a ``repro.bench/v1`` document (see
``benchmarks/bench_backend_scoring.py``) can be *ingested* into the
append-only ledger ``BENCH_TRAJECTORY.json`` (schema
``repro.benchtrack/v1``), which accumulates one entry per run with the
git SHA, timestamp, workload spec and per-configuration results. A
markdown report (``BENCH_TRAJECTORY.md``) is regenerated from the
ledger on every ingest, and ``check`` compares a fresh bench document
against the ledger baseline for the *same workload* and fails when a
tracked metric regresses beyond the configured tolerance — the CI
perf-smoke gate.

Usage::

    python -m tools.benchtrack ingest BENCH_PR8.json
    python -m tools.benchtrack report
    python -m tools.benchtrack check BENCH_smoke.json --tolerance 0.5
    python -m tools.benchtrack check BENCH_SHARD.smoke.json --metric seqs_per_second
    python -m tools.benchtrack --check BENCH_smoke.json   # sugar

Shard documents (``benchmarks/bench_shard_throughput.py``) go through
``check`` on ``seqs_per_second``: every shard count is judged against
the same shard count in the baseline, never against another shard
count. ``check-serving`` is the
serving-layer gate: against the ledger baseline for the same workload
it enforces a ``req_per_second`` floor and a ``p99_ms`` ceiling
(``benchmarks/bench_serving.py`` produces the documents)::

    python -m tools.benchtrack check-serving BENCH_SERVING.json

``check-fit-quality`` gates the fit-quality bench
(``benchmarks/bench_fit_quality.py``): each draw's ARI may fall at most
0.02 below the same draw in the baseline::

    python -m tools.benchtrack check-fit-quality fit-quality.smoke.json

Stdlib only — no numpy, no third-party deps — so it runs anywhere the
CI does, including before the project venv is built.
"""

from __future__ import annotations

from .ledger import (
    LEDGER_SCHEMA,
    check_fit_quality,
    check_regressions,
    check_serving,
    ingest,
    load_ledger,
    new_ledger,
    render_report,
    save_ledger,
)
from .schema import BENCH_SCHEMA, load_bench_document, stamp_bench_document, validate_bench_document

__all__ = [
    "BENCH_SCHEMA",
    "LEDGER_SCHEMA",
    "check_fit_quality",
    "check_regressions",
    "check_serving",
    "ingest",
    "load_bench_document",
    "load_ledger",
    "new_ledger",
    "render_report",
    "save_ledger",
    "stamp_bench_document",
    "validate_bench_document",
]
