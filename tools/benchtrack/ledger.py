"""The append-only bench trajectory ledger (``repro.benchtrack/v1``).

Ledger shape::

    {
      "schema": "repro.benchtrack/v1",
      "entries": [
        {"bench": "backend_scoring",
         "workload": {...},
         "git_sha": "...", "generated_unix": ..., "source": "BENCH_PR5.json",
         "results": [...]},
        ...
      ]
    }

Entries are appended in ingest order and never rewritten, so the file
is a longitudinal record of how each benchmark moved across PRs.
Comparisons only ever pair entries whose ``bench`` *and* ``workload``
match exactly — a smoke run is never judged against a full run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from .schema import BENCH_SCHEMA, stamp_bench_document, validate_bench_document

LEDGER_SCHEMA = "repro.benchtrack/v1"

#: Default ratio metric compared by ``check`` — machine-portable, unlike
#: raw seconds (the reference backend is measured in the same process).
DEFAULT_METRIC = "speedup"

#: Default allowed fractional drop before ``check`` fails. Generous on
#: purpose: CI machines are noisy and the gate should catch collapses
#: (a 2x regression), not jitter.
DEFAULT_TOLERANCE = 0.5

PathLike = Union[str, Path]


def new_ledger() -> dict[str, Any]:
    return {"schema": LEDGER_SCHEMA, "entries": []}


def load_ledger(path: PathLike) -> dict[str, Any]:
    """Load a ledger, or a fresh one when *path* does not exist yet."""
    target = Path(path)
    if not target.exists():
        return new_ledger()
    with open(target, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("schema") != LEDGER_SCHEMA:
        raise ValueError(
            f"{path}: not a {LEDGER_SCHEMA} ledger "
            f"(schema: {doc.get('schema') if isinstance(doc, dict) else doc!r})"
        )
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: ledger entries must be an array")
    return doc


def save_ledger(path: PathLike, ledger: dict[str, Any]) -> None:
    Path(path).write_text(
        json.dumps(ledger, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )


def ingest(
    ledger: dict[str, Any],
    doc: dict[str, Any],
    source: Optional[str] = None,
) -> dict[str, Any]:
    """Validate, stamp and append *doc* to *ledger*; returns the entry."""
    problems = validate_bench_document(doc)
    if problems:
        raise ValueError(
            f"invalid {BENCH_SCHEMA} document:\n  " + "\n  ".join(problems)
        )
    stamp_bench_document(doc)
    entry = {
        "bench": doc["bench"],
        "workload": doc["workload"],
        "git_sha": doc.get("git_sha"),
        "generated_unix": doc.get("generated_unix"),
        "source": source,
        "results": doc["results"],
    }
    ledger["entries"].append(entry)
    return entry


#: Result-row fields that are measurements, not configuration.
_METRIC_FIELDS = frozenset(
    {
        "seconds",
        "pairs_per_second",
        "seqs_per_second",
        "speedup",
        # serving measurements (benchmarks/bench_serving.py)
        "req_per_second",
        "p50_ms",
        "p99_ms",
        "batch_occupancy",
        "requests",
        "rejected",
        "errors",
        # shard outcomes (benchmarks/bench_shard_throughput.py): a
        # change that moves them must still pair with its baseline row
        "sequences",
        "absorbed",
        "clusters",
        "consolidations",
        "cross_merges",
        # fit-quality outcomes (benchmarks/bench_fit_quality.py): each
        # row pairs with its baseline by draw, whatever the fit did
        "iterations",
        "converged",
        "seeds",
        "dismissed",
        "recovered",
        "outliers_left",
        "outliers",
        "t_moves",
        "digest",
        "host_parallelism",
    }
)


def _config_key(row: dict[str, Any]) -> str:
    """Stable label for one result row: every non-metric field."""
    parts = []
    for key in sorted(row):
        if key in _METRIC_FIELDS:
            continue
        if isinstance(row[key], (str, int, bool)):
            parts.append(f"{key}={row[key]}")
    return " ".join(parts) or "default"


def _baseline_entry(
    ledger: dict[str, Any], doc: dict[str, Any]
) -> Optional[dict[str, Any]]:
    """Most recent ledger entry with the same bench and exact workload."""
    for entry in reversed(ledger.get("entries", [])):
        if (
            entry.get("bench") == doc.get("bench")
            and entry.get("workload") == doc.get("workload")
        ):
            return entry
    return None


def _baseline_pairs(
    ledger: dict[str, Any], doc: dict[str, Any]
) -> tuple[Optional[dict[str, Any]], list[tuple[str, dict, dict]]]:
    """*doc*'s ledger baseline and its ``(key, row, baseline row)`` pairs.

    A row pairs with the baseline row of the same configuration key;
    rows whose configuration exists on one side only are left out.
    """
    baseline = _baseline_entry(ledger, doc)
    if baseline is None:
        return None, []
    base_rows = {
        _config_key(row): row
        for row in baseline["results"]
        if isinstance(row, dict)
    }
    pairs = []
    for row in doc["results"]:
        key = _config_key(row)
        if key in base_rows:
            pairs.append((key, row, base_rows[key]))
    return baseline, pairs


def _nothing_compared(doc: dict[str, Any], against: str) -> str:
    """The message of a gate that found its baseline but no twin row."""
    return (
        f"{doc['bench']}: no result row could be compared with {against}; "
        "the document shares no configuration (or no metric) with it"
    )


def _numbers(*values: Any) -> bool:
    return all(isinstance(value, (int, float)) for value in values)


def check_regressions(
    ledger: dict[str, Any],
    doc: dict[str, Any],
    metric: str = DEFAULT_METRIC,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Regression messages for *doc* against its ledger baseline.

    Empty list = pass. Configurations present in only one side are
    skipped (a new backend is not a regression), but when a baseline
    exists and *no* row could be compared with it the check fails: a
    gate that compares nothing must not pass. A missing baseline for
    the (bench, workload) pair passes with no messages — ``check`` can
    run before the first ingest of a new workload.
    """
    problems = validate_bench_document(doc)
    if problems:
        return [f"invalid bench document: {p}" for p in problems]
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    baseline, pairs = _baseline_pairs(ledger, doc)
    if baseline is None:
        return []
    messages = []
    compared = 0
    for key, row, base in pairs:
        new_value = row.get(metric)
        old_value = base.get(metric)
        if not _numbers(new_value, old_value):
            continue
        compared += 1
        floor = old_value * (1.0 - tolerance)
        if new_value < floor:
            messages.append(
                f"{doc['bench']} [{key}]: {metric} regressed "
                f"{old_value:.3g} -> {new_value:.3g} "
                f"(floor {floor:.3g} at tolerance {tolerance:.0%}, "
                f"baseline {baseline.get('git_sha') or 'unstamped'})"
            )
    if not compared:
        sha = baseline.get("git_sha") or "unstamped"
        messages.append(
            _nothing_compared(doc, f"the {metric} of baseline {sha}")
        )
    return messages


#: Default allowed fractional throughput drop / p99 rise for serving.
DEFAULT_SERVING_TOLERANCE = 0.5
DEFAULT_LATENCY_TOLERANCE = 1.0


def check_serving(
    ledger: dict[str, Any],
    doc: dict[str, Any],
    tolerance: float = DEFAULT_SERVING_TOLERANCE,
    latency_tolerance: float = DEFAULT_LATENCY_TOLERANCE,
) -> list[str]:
    """Serving regression messages for *doc* vs its ledger baseline.

    The serving analogue of :func:`check_regressions`, but two-sided:
    ``req_per_second`` must not *drop* more than *tolerance* below the
    baseline, and ``p99_ms`` must not *rise* more than
    *latency_tolerance* above it. Latency gets its own (more generous)
    allowance — tail latency on shared CI runners is far noisier than
    throughput, and the gate exists to catch collapses, not scheduler
    jitter. Rows or baselines missing either metric are skipped, as is
    a missing (bench, workload) baseline entirely; but when a baseline
    exists and no row could be compared with it, the check fails.
    """
    problems = validate_bench_document(doc)
    if problems:
        return [f"invalid bench document: {p}" for p in problems]
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    if latency_tolerance < 0.0:
        raise ValueError(
            f"latency tolerance must be >= 0, got {latency_tolerance}"
        )
    baseline, pairs = _baseline_pairs(ledger, doc)
    if baseline is None:
        return []
    sha = baseline.get("git_sha") or "unstamped"
    messages = []
    compared = 0
    for key, row, base in pairs:
        new_rps = row.get("req_per_second")
        old_rps = base.get("req_per_second")
        if _numbers(new_rps, old_rps):
            compared += 1
            floor = old_rps * (1.0 - tolerance)
            if new_rps < floor:
                messages.append(
                    f"{doc['bench']} [{key}]: req_per_second regressed "
                    f"{old_rps:.4g} -> {new_rps:.4g} "
                    f"(floor {floor:.4g} at tolerance {tolerance:.0%}, "
                    f"baseline {sha})"
                )
        new_p99 = row.get("p99_ms")
        old_p99 = base.get("p99_ms")
        if _numbers(new_p99, old_p99):
            compared += 1
            ceiling = old_p99 * (1.0 + latency_tolerance)
            if new_p99 > ceiling:
                messages.append(
                    f"{doc['bench']} [{key}]: p99_ms regressed "
                    f"{old_p99:.4g} -> {new_p99:.4g} "
                    f"(ceiling {ceiling:.4g} at tolerance "
                    f"{latency_tolerance:.0%}, baseline {sha})"
                )
    if not compared:
        messages.append(_nothing_compared(doc, f"serving baseline {sha}"))
    return messages


#: Allowed ARI drop per draw for ``check-fit-quality``. The fit is
#: deterministic, so any drop is a behaviour change; this is how much
#: of one a change may trade for something else.
ARI_TOLERANCE = 0.02


def check_fit_quality(ledger: dict[str, Any], doc: dict[str, Any]) -> list[str]:
    """Fit-quality regression messages for *doc* vs its ledger baseline.

    Each draw's ``ari`` must not fall more than :data:`ARI_TOLERANCE`
    below the same draw in the latest baseline; wall time is reported,
    not gated. As in :func:`check_regressions`, a missing baseline
    passes and a baseline with no draw in common fails.
    """
    problems = validate_bench_document(doc)
    if problems:
        return [f"invalid bench document: {p}" for p in problems]
    baseline, pairs = _baseline_pairs(ledger, doc)
    if baseline is None:
        return []
    sha = baseline.get("git_sha") or "unstamped"
    messages = []
    compared = 0
    for key, row, base in pairs:
        new_ari = row.get("ari")
        old_ari = base.get("ari")
        if not _numbers(new_ari, old_ari):
            continue
        compared += 1
        if new_ari < old_ari - ARI_TOLERANCE:
            messages.append(
                f"{doc['bench']} [{key}]: ari regressed "
                f"{old_ari:.4f} -> {new_ari:.4f} "
                f"(more than {ARI_TOLERANCE} below baseline {sha})"
            )
    if not compared:
        messages.append(_nothing_compared(doc, f"the ari of baseline {sha}"))
    return messages


def _format_unix(stamp: Any) -> str:
    if not isinstance(stamp, (int, float)):
        return "-"
    import datetime

    return datetime.datetime.fromtimestamp(
        stamp, tz=datetime.timezone.utc
    ).strftime("%Y-%m-%d")


def _historical(row: dict[str, Any]) -> bool:
    """A row of the worker-pool scoring configuration (``workers`` other
    than 0), which no longer exists: no new document can produce it."""
    return row.get("workers", 0) != 0


#: ``(field, title, format)`` of the columns a table shows after
#: ``seconds`` when one of its rows has the field: the fit-quality
#: outcomes the ARI gate guards, and the host's parallelism, which puts
#: walls from different hosts side by side.
_REPORT_EXTRAS = (
    ("ari", "ARI", ".3f"),
    ("recovered", "recovered", ""),
    ("outliers_left", "outliers left", ""),
    ("host_parallelism", "host parallelism", ".2f"),
)


def _cell(value: Any, spec: str) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "-"
    return format(value, spec)


def render_report(ledger: dict[str, Any]) -> str:
    """Markdown trajectory report, one table per (bench, workload)."""
    lines = [
        "# Bench trajectory",
        "",
        "Regenerated by `python -m tools.benchtrack` — do not edit.",
        "Schema: `" + LEDGER_SCHEMA + "`.",
        "",
        "Rows marked *(historical)* ran with `workers` other than 0: the",
        "worker-pool scoring they measured was removed, so no new",
        "document produces them and no check pairs with them.",
    ]
    groups: dict[str, list[dict[str, Any]]] = {}
    for entry in ledger.get("entries", []):
        workload = json.dumps(entry.get("workload", {}), sort_keys=True)
        groups.setdefault(f"{entry.get('bench')} {workload}", []).append(entry)
    for group_key in sorted(groups):
        entries = groups[group_key]
        bench = entries[0].get("bench", "?")
        rows = [
            row
            for entry in entries
            for row in entry.get("results", [])
            if isinstance(row, dict)
        ]
        extras = [
            column for column in _REPORT_EXTRAS if any(column[0] in row for row in rows)
        ]
        titles = ["date", "sha", "config", "seconds"]
        titles += [title for _, title, _ in extras] + ["speedup"]
        lines += [
            "",
            f"## {bench}",
            "",
            f"Workload: `{json.dumps(entries[0].get('workload', {}), sort_keys=True)}`",
            "",
            "| " + " | ".join(titles) + " |",
            "|" + "---|" * len(titles),
        ]
        for entry in entries:
            sha = entry.get("git_sha") or "-"
            date = _format_unix(entry.get("generated_unix"))
            for row in entry.get("results", []):
                if not isinstance(row, dict):
                    continue
                seconds = row.get("seconds")
                speedup = row.get("speedup")
                seconds_cell = (
                    f"{seconds:.4g}" if isinstance(seconds, (int, float)) else "-"
                )
                speedup_cell = (
                    f"{speedup:.2f}x"
                    if isinstance(speedup, (int, float))
                    else "-"
                )
                config = _config_key(row)
                if _historical(row):
                    config += " *(historical)*"
                extra_cells = "".join(
                    f" | {_cell(row.get(field), spec)}" for field, _, spec in extras
                )
                lines.append(
                    f"| {date} | {str(sha)[:10]} | {config} "
                    f"| {seconds_cell}{extra_cells} | {speedup_cell} |"
                )
    lines.append("")
    return "\n".join(lines)
