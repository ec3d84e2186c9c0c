"""The serve workloads: a ``cluseq serve`` subprocess under closed-loop load.

Load comes from this one process over two keep-alive connections (the
benchmark host has two vCPUs, one of which the server needs). Each
connection sends its next request only after the previous reply, so a
slower server receives less load. The server scores in-process
(``--workers 0``, the CLI default). While the load runs, the main thread
takes a host-speed probe every :data:`PROBE_INTERVAL_S`.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import subprocess
import sys
import threading
import time
import traceback
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from make_fixture import SERVE_MODEL, SERVE_QUERIES, read_lines_gz
from measure import HostSpeed, median, read_vmhwm_mb, window_rates
from repro.core.persistence import load_result_with_alphabet
from spans import read_jsonl
from workloads import (
    Counters,
    Outcome,
    Run,
    add_layer_metrics,
    add_overhead,
    put_raw,
    put_timing,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Distinct classify sequences; requests cycle through them in order.
QUERY_POOL = 256
CLASSIFY_SEQS = 8
INGEST_SEQS = 2
#: Throughput is the median rate over windows of this many seconds.
RATE_WINDOW_S = 1.0
PROBE_INTERVAL_S = 0.05
#: Nominal ingest requests per second beside the classify reader on a
#: 2-vCPU host; sizes the writer's fixed request count from --seconds.
INGEST_NOMINAL_RPS = 100.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

Request = tuple[str, bytes, Callable[[bytes], bool]]


def classify_pool(seed: int) -> list[str]:
    """The classify requests' sequences: :data:`QUERY_POOL` of the
    committed queries, chosen by *seed*. The queries come from the serve
    model's own cluster sources, one of which has no cluster in the
    fitted model, so some classify as outliers."""
    lines = read_lines_gz(SERVE_QUERIES)
    picks = np.random.default_rng(seed).choice(len(lines), size=QUERY_POOL, replace=False)
    return [lines[int(i)] for i in picks]


def ingest_order(requests: int, per_request: int) -> list[list[str]]:
    """The ingest requests of ``serve-mixed``: the committed queries in
    file order (cycled). Pinned, unlike the classify pool: each ingest
    grows the model, and across seeds the server's peak RSS moved 9%."""
    lines = read_lines_gz(SERVE_QUERIES)
    flat = [lines[i % len(lines)] for i in range(requests * per_request)]
    return [flat[i : i + per_request] for i in range(0, len(flat), per_request)]


# -- server process -------------------------------------------------------------


@dataclass
class Server:
    pid: int
    host: str
    port: int
    #: ``perf_counter`` at spawn and when the ready file was complete.
    spawned: float
    ready: float

    def connect(self) -> Client:
        return Client(self.host, self.port)


def _wait_ready(proc: subprocess.Popen, ready: Path) -> tuple[str, int]:
    deadline = time.perf_counter() + READY_TIMEOUT_S
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with code {proc.returncode}")
        if ready.exists():
            text = ready.read_text(encoding="utf-8")
            # The CLI opens the file before writing it: wait for the line.
            if text.endswith("\n"):
                host, port = text.split()
                return host, int(port)
        time.sleep(0.005)
    raise RuntimeError(f"server not ready within {READY_TIMEOUT_S:.0f} s")


@contextmanager
def running_server(run: Run, tag: str, spans_out: Path | None = None) -> Iterator[Server]:
    """A ``cluseq serve`` subprocess on an ephemeral port, stopped on exit.

    With *spans_out* the CLI runs under ``serve_traced.py``, which writes
    the server's layer spans there when it shuts down.
    """
    ready = run.out_dir / f"{run.workload}-{tag}.ready"
    if ready.exists():
        ready.unlink()
    cli = ["serve", str(SERVE_MODEL), "--port", "0", "--ready-file", str(ready)]
    if spans_out is None:
        argv = [sys.executable, "-m", "repro.cli", *cli]
    else:
        argv = [sys.executable, str(HERE / "serve_traced.py"), str(spans_out), *cli]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(run.out_dir / f"{run.workload}-{tag}.log", "w", encoding="utf-8") as log:
        spawned = time.perf_counter()
        with subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env) as proc:
            try:
                host, port = _wait_ready(proc, ready)
                yield Server(proc.pid, host, port, spawned, time.perf_counter())
            finally:
                if proc.poll() is None:
                    proc.terminate()
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=60)

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> bytes:
        status, data = self.call("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return data

    def close(self) -> None:
        self._conn.close()


class Loop:
    """One connection's closed request loop, run on its own thread.

    ``next_request`` returns ``(path, body, check)`` or ``None`` to stop;
    ``check`` validates the reply body. A failed check, a non-200 reply
    or a transport error counts as a failed operation.
    """

    def __init__(self, server: Server, next_request: Callable[[], Request | None]) -> None:
        self.server = server
        self.next_request = next_request
        #: ``(start, end)`` ``perf_counter`` of each successful request.
        self.spans: list[tuple[float, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        client = self.server.connect()
        try:
            while True:
                request = self.next_request()
                if request is None:
                    break
                path, body, check = request
                started = time.perf_counter()
                try:
                    status, data = client.call("POST", path, body)
                except (OSError, http.client.HTTPException) as exc:
                    self.failed += 1
                    self.errors.append(repr(exc))
                    client.close()
                    client = self.server.connect()
                    continue
                finished = time.perf_counter()
                try:
                    passed = status == 200 and check(data)
                except (ValueError, KeyError, TypeError):  # malformed reply body
                    passed = False
                if passed:
                    self.spans.append((started, finished))
                else:
                    self.failed += 1
                    self.errors.append(f"{path}: status {status}, body {data[:200]!r}")
        except Exception:  # noqa: BLE001 - thread boundary: report, never hang
            self.errors.append(traceback.format_exc())
            self.failed += 1
        finally:
            client.close()

    def start(self) -> None:
        self._thread.start()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def attempted(self) -> int:
        return len(self.spans) + self.failed


def _classify_bodies(queries: list[str]) -> list[tuple[bytes, list[str]]]:
    """Request bodies cycling through the query pool in order."""
    bodies = []
    for start in range(0, len(queries), CLASSIFY_SEQS):
        batch = queries[start : start + CLASSIFY_SEQS]
        bodies.append((json.dumps({"sequences": batch}).encode(), batch))
    return bodies


def _classify_check(expected: list[int | None] | None) -> Callable[[bytes], bool]:
    def check(data: bytes) -> bool:
        results = json.loads(data)["results"]
        if len(results) != CLASSIFY_SEQS:
            return False
        if expected is None:
            return True
        return [result.get("cluster") for result in results] == expected

    return check


@dataclass
class Load:
    """What one server lifetime under load measured."""

    loops: list[Loop]
    speed: HostSpeed
    started: float
    wall: float
    peak_rss_mb: float
    metrics_text: str
    #: Final cluster sizes (``GET /v1/clusters``), by cluster id.
    sizes: dict[int, int]

    def latencies(self, loop: Loop, correct: bool = True) -> list[float]:
        if not correct:
            return [end - start for start, end in loop.spans]
        return [self.speed.corrected(end - start, start, end) for start, end in loop.spans]

    def rates(self, weights: list[tuple[Loop, int]], correct: bool = True) -> list[float]:
        """Sequences served per second in each full window of the load;
        *weights* pairs each loop with its sequences per request."""
        done = [end for loop, seqs in weights for _, end in loop.spans for _ in range(seqs)]
        rates = window_rates(done, self.started, self.started + self.wall, RATE_WINDOW_S)
        if not correct:
            return rates
        return [
            rate / self.speed.factor(
                self.started + index * RATE_WINDOW_S,
                self.started + (index + 1) * RATE_WINDOW_S,
            )
            for index, rate in enumerate(rates)
        ]


def _run_load(
    server: Server, loops: list[Loop], speed: HostSpeed, timeout: float,
    on_first_done: Callable[[], None],
) -> Load:
    """Run *loops* to completion, probing the host's speed meanwhile;
    *on_first_done* runs once the first loop has stopped."""
    started = time.perf_counter()
    for loop in loops:
        loop.start()
    first_done = False
    while any(loop.alive for loop in loops):
        if time.perf_counter() - started > timeout:
            raise RuntimeError(f"load did not finish within {timeout:.0f} s")
        speed.probe()
        time.sleep(PROBE_INTERVAL_S)
        if not first_done and not loops[0].alive:
            on_first_done()
            first_done = True
    wall = time.perf_counter() - started
    speed.probe()
    rss = read_vmhwm_mb(server.pid)
    admin = server.connect()
    try:
        clusters = json.loads(admin.get("/v1/clusters"))
        metrics = admin.get("/metrics").decode()
    finally:
        admin.close()
    sizes = {int(c["cluster"]): int(c["size"]) for c in clusters["clusters"]}
    return Load(loops, speed, started, wall, rss, metrics, sizes)


def _timed_spawn(run: Run, tag: str, speed: HostSpeed, spans: list[tuple[float, float]]) -> None:
    """One server start-up, timed and stopped. Set-up time is the median
    of three start-ups: one before the load, the load server's and one
    after it."""
    speed.probe()
    with running_server(run, tag) as server:
        speed.probe()
        spans.append((server.spawned, server.ready))


def _put_setup(out: Outcome, speed: HostSpeed, spans: list[tuple[float, float]]) -> float:
    """Report the corrected set-up median; returns the raw one."""
    out.put(
        "setup_s",
        median([speed.corrected(end - start, start, end) for start, end in spans]),
        "s",
        len(spans),
    )
    return median([end - start for start, end in spans])


def _server_layers(out: Outcome, run: Run, server_spans: Path, load: Load) -> None:
    """Per-layer metrics of a traced load: the server's spans and the
    counters its ``/metrics`` exposed after the load."""
    counters = Counters(load.metrics_text)
    add_layer_metrics(out, run, read_jsonl(str(server_spans)), counters, load.wall, 0)
    for endpoint in ("classify", "ingest"):
        seconds, count = counters.timer("serve.request_seconds", f'{{endpoint="{endpoint}"}}')
        out.put(f"serve.handler_ms.{endpoint}", 1000.0 * seconds / count if count else 0.0,
                "ms", int(count))
    handler_s, handled = counters.timer("serve.request_seconds", '{endpoint="classify"}')
    client = load.latencies(load.loops[-1], correct=False)
    if client and handled:
        out.put(
            "serve.client_overhead_ms",
            1000.0 * (sum(client) / len(client) - handler_s / handled),
            "ms",
            len(client),
        )
    flushes = counters.counter("serve.batch.flushes")
    out.put("serve.batch_flushes", flushes, "count")
    out.put(
        "serve.batch_occupancy",
        counters.histogram_sum("serve.batch.requests") / flushes if flushes else 0.0,
        "requests",
    )
    out.put("serve.batch_score_s", counters.timer("serve.batch.score_seconds")[0], "s")
    out.put("serve.rejected", counters.counter("serve.rejected"), "count")
    out.put("serve.flatten_builds", counters.counter("backend.flatten_builds"), "count")


def _count(out: Outcome, load: Load) -> list[str]:
    """Add *load*'s operations to the outcome; returns its errors."""
    out.attempted += sum(loop.attempted for loop in load.loops)
    out.failed += sum(loop.failed for loop in load.loops)
    return [error for loop in load.loops for error in loop.errors]


# -- serve-classify ------------------------------------------------------------------


def _classify_load(
    run: Run, tag: str, bodies: list[tuple[bytes, list[str]]],
    expected: dict[int, list[int | None]], speed: HostSpeed,
    setup: list[tuple[float, float]] | None, spans_out: Path | None = None,
) -> Load:
    """Two classify loops for ``run.seconds`` against a fresh server."""
    with running_server(run, tag, spans_out) as server:
        speed.probe()
        if setup is not None:
            setup.append((server.spawned, server.ready))
        counter = itertools.count()
        deadline = time.perf_counter() + run.seconds

        def next_request() -> Request | None:
            if time.perf_counter() >= deadline:
                return None
            index = next(counter) % len(bodies)
            return "/v1/classify", bodies[index][0], _classify_check(expected[index])

        loops = [Loop(server, next_request) for _ in range(2)]
        return _run_load(server, loops, speed, run.seconds + 120, lambda: None)


def serve_classify(run: Run) -> Outcome:
    """Closed-loop ``POST /v1/classify`` against the committed fixture."""
    out = Outcome()
    result, alphabet = load_result_with_alphabet(str(SERVE_MODEL))
    bodies = _classify_bodies(classify_pool(run.seed))
    expected = {
        index: [result.predict(alphabet.encode(seq)) for seq in batch]
        for index, (_, batch) in enumerate(bodies)
    }
    speed = HostSpeed()
    setup: list[tuple[float, float]] = []
    _timed_spawn(run, "setup-before", speed, setup)
    load = _classify_load(run, "load", bodies, expected, speed, setup)
    _timed_spawn(run, "setup-after", speed, setup)
    errors = _count(out, load)

    latencies = [x for loop in load.loops for x in load.latencies(loop)]
    raw_latencies = [x for loop in load.loops for x in load.latencies(loop, correct=False)]
    weights = [(loop, CLASSIFY_SEQS) for loop in load.loops]
    rates = load.rates(weights)
    raw_setup = _put_setup(out, speed, setup)
    out.put("seq_per_s", median(rates), "seq/s", len(rates))
    out.put("latency_ms", median(latencies) * 1000.0, "ms", len(latencies))
    out.put("peak_rss_mb", load.peak_rss_mb, "MB")
    put_raw(out, speed, raw_setup, median(load.rates(weights, correct=False)),
            median(raw_latencies) * 1000.0)
    out.put("serve.classify_rps", median(rates) / CLASSIFY_SEQS, "1/s", len(rates))
    put_timing(out, "serve.classify_p99_ms", latencies, 99, 1000.0, "ms")

    if run.trace:
        spans_out = run.out_dir / f"{run.workload}-server-spans.jsonl"
        traced = _classify_load(run, "traced", bodies, expected, HostSpeed(), None, spans_out)
        errors += _count(out, traced)
        traced_requests = sum(len(loop.spans) for loop in traced.loops)
        _server_layers(out, run, spans_out, traced)
        add_overhead(
            out, load.wall / len(latencies), traced.wall / traced_requests, traced_requests
        )

    out.gate(
        "matches predict",
        out.failed == 0,
        f"{out.attempted - out.failed}/{out.attempted} replies equal "
        "ClusteringResult.predict" + (f"; first error: {errors[0]}" if errors else ""),
    )
    return out


# -- serve-mixed --------------------------------------------------------------------


def _mixed_load(
    run: Run, tag: str, classify_bodies: list[tuple[bytes, list[str]]],
    ingest_bodies: list[bytes], speed: HostSpeed,
    setup: list[tuple[float, float]] | None, spans_out: Path | None = None,
) -> tuple[Load, list[list[int | None]]]:
    """A writer sends every ingest request in order while a reader
    classifies in a closed loop until the writer is done. Returns the
    load and the writer's ingest assignments."""
    replies: list[list[int | None]] = []
    with running_server(run, tag, spans_out) as server:
        speed.probe()
        if setup is not None:
            setup.append((server.spawned, server.ready))
        writes = iter(ingest_bodies)
        writer_done = threading.Event()
        reads = itertools.count()

        def record(data: bytes) -> bool:
            replies.append(json.loads(data)["assignments"])
            return len(replies[-1]) == INGEST_SEQS

        def next_write() -> Request | None:
            body = next(writes, None)
            return None if body is None else ("/v1/stream/ingest", body, record)

        def next_read() -> Request | None:
            if writer_done.is_set():
                return None
            body = classify_bodies[next(reads) % len(classify_bodies)][0]
            return "/v1/classify", body, _classify_check(None)

        loops = [Loop(server, next_write), Loop(server, next_read)]
        load = _run_load(server, loops, speed, run.seconds * 4 + 60, writer_done.set)
    return load, replies


def serve_mixed(run: Run) -> Outcome:
    """Ingest writes beside classify reads on one server."""
    out = Outcome()
    writes = max(1, round(run.seconds * INGEST_NOMINAL_RPS))
    classify_bodies = _classify_bodies(classify_pool(run.seed))
    ingest_batches = ingest_order(writes, INGEST_SEQS)
    ingest_bodies = [json.dumps({"sequences": batch}).encode() for batch in ingest_batches]

    # The expected end state: the same ingest order replayed in-process.
    replay, alphabet = load_result_with_alphabet(str(SERVE_MODEL))
    expected_replies = [
        [replay.assign_and_absorb(alphabet.encode(seq)) for seq in batch]
        for batch in ingest_batches
    ]
    expected_sizes = {c.cluster_id: c.size for c in replay.clusters}

    speed = HostSpeed()
    setup: list[tuple[float, float]] = []
    _timed_spawn(run, "setup-before", speed, setup)
    load, replies = _mixed_load(run, "load", classify_bodies, ingest_bodies, speed, setup)
    _timed_spawn(run, "setup-after", speed, setup)
    errors = _count(out, load)

    writer, reader = load.loops
    reads = load.latencies(reader)
    writes_ms = load.latencies(writer)
    # The writer's fixed work over its whole duration, corrected by every
    # probe taken meanwhile; window medians of a two-request-type mix
    # spread twice as wide.
    begin, end = writer.spans[0][0], writer.spans[-1][1]
    ingested = INGEST_SEQS * len(writer.spans)
    raw_setup = _put_setup(out, speed, setup)
    out.put("seq_per_s", ingested / speed.corrected(end - begin, begin, end), "seq/s",
            len(writer.spans))
    out.put("latency_ms", median(reads) * 1000.0, "ms", len(reads))
    out.put("peak_rss_mb", load.peak_rss_mb, "MB")
    put_raw(out, speed, raw_setup, ingested / (end - begin),
            median(load.latencies(reader, correct=False)) * 1000.0)
    out.put("serve.classify_rps", median(load.rates([(reader, 1)])), "1/s", len(reads))
    put_timing(out, "serve.classify_p99_ms", reads, 99, 1000.0, "ms")
    out.put("serve.ingest_p50_ms", median(writes_ms) * 1000.0, "ms", len(writes_ms))
    put_timing(out, "serve.ingest_p99_ms", writes_ms, 99, 1000.0, "ms")
    out.put("pst.nodes_final", sum(c.pst.node_count for c in replay.clusters), "count")

    if run.trace:
        spans_out = run.out_dir / f"{run.workload}-server-spans.jsonl"
        traced, traced_replies = _mixed_load(
            run, "traced", classify_bodies, ingest_bodies, HostSpeed(), None, spans_out
        )
        errors += _count(out, traced)
        _server_layers(out, run, spans_out, traced)
        add_overhead(out, load.wall / writes, traced.wall / writes, writes)
        out.gate(
            "traced run agrees",
            traced_replies == expected_replies and traced.sizes == expected_sizes,
            "traced server ends in the replayed state",
        )

    out.gate(
        "ingest replay",
        replies == expected_replies and load.sizes == expected_sizes,
        f"{len(replies)} ingest replies and {len(load.sizes)} final cluster sizes "
        "equal an in-process assign_and_absorb replay",
    )
    out.gate(
        "no failed requests",
        out.failed == 0,
        f"{out.failed} of {out.attempted} failed"
        + (f"; first error: {errors[0]}" if errors else ""),
    )
    return out
