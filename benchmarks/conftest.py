"""Shared configuration for the paper-reproduction benchmarks.

Every bench regenerates one table or figure of the paper on the scaled
workloads, prints the rows in the paper's layout, and asserts the
*shape* of the result (who wins, what stays flat, where the knee is) —
absolute numbers are machine-dependent and not asserted.

Run with:  pytest benchmarks/ --benchmark-only

Each bench additionally runs under a fresh metrics registry and, when
it collected anything, dumps the registry to
``benchmarks/telemetry/BENCH_<test>.telemetry.json`` (directory
overridable via ``BENCH_TELEMETRY_DIR``) — the machine-readable
``repro.telemetry/v2`` record of per-phase timers, PST sizes and work
counters that lets the perf trajectory be compared across PRs, next to
the printed tables.
"""

import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.datasets.languages import make_language_database
from repro.datasets.protein import make_protein_database
from repro.obs import MetricsRegistry, use_registry, write_telemetry_json
from repro.sequences.generators import generate_clustered_database
from tools.benchtrack.schema import write_bench_document  # noqa: E402


@pytest.fixture(scope="session")
def bench_document_writer():
    """The validating/stamping writer for ``repro.bench/v1`` JSONs.

    Benches that emit machine-readable result documents write them
    through this (it validates the schema and stamps git SHA +
    timestamp) so every produced file is ingestable by
    ``tools.benchtrack``.
    """
    return write_bench_document


def pytest_configure(config):
    # Benchmarks are one-shot experiment harnesses, not microbenchmarks:
    # a single round per bench keeps total wall-clock sane.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False
    # Each bench prints the table/figure rows it regenerated; surface
    # that captured output for passing tests too, so a plain
    # `pytest benchmarks/ --benchmark-only | tee bench_output.txt`
    # records the reproduced rows alongside the timings.
    reportchars = getattr(config.option, "reportchars", "") or ""
    if "P" not in reportchars:
        config.option.reportchars = reportchars + "P"


@pytest.fixture(autouse=True)
def bench_telemetry(request):
    """Collect metrics for each bench and write a telemetry JSON dump."""
    registry = MetricsRegistry()
    with use_registry(registry):
        yield registry
    if len(registry) == 0:
        return  # bench exercised no instrumented code; nothing to record
    out_dir = Path(
        os.environ.get("BENCH_TELEMETRY_DIR", Path(__file__).parent / "telemetry")
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    safe_name = request.node.name.replace("/", "_").replace("[", "_").rstrip("]")
    write_telemetry_json(
        out_dir / f"BENCH_{safe_name}.telemetry.json",
        registry,
        context={"bench": request.node.nodeid},
    )


@pytest.fixture(scope="session")
def protein_db():
    """Scaled Table 2/3 protein database (10 families, ~170 sequences)."""
    return make_protein_database(
        num_families=10, scale=0.04, mean_length=100, seed=1, concentration=0.2
    )


@pytest.fixture(scope="session")
def small_protein_db():
    """Smaller protein database for the expensive baselines (ED/EDBO/HMM)."""
    return make_protein_database(
        num_families=4, scale=0.03, mean_length=80, seed=1, concentration=0.2
    )


@pytest.fixture(scope="session")
def language_db():
    """Scaled Table 4 language database (120 sentences per language)."""
    return make_language_database(
        sentences_per_language=120, noise_sentences=20, seed=2
    )


@pytest.fixture(scope="session")
def synthetic_db():
    """Shared sensitivity-analysis workload (10 clusters, 5% outliers).

    See ``table5_initial_k.default_database`` for why the outlier
    fraction is scaled down with the workload.
    """
    return generate_clustered_database(
        num_sequences=200,
        num_clusters=10,
        avg_length=120,
        alphabet_size=12,
        outlier_fraction=0.05,
        seed=3,
    ).database


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
