"""Clustering-as-a-service: endpoint routing and the server lifecycle.

:class:`ServeApp` wires the pieces — :class:`~.registry.ModelRegistry`
for versioned models, :class:`~.batching.MicroBatcher` for coalesced
scoring, :class:`~.http.HttpServer` for the wire — into the service
surface:

====================================  =========================================
``POST /v1/classify``                 batch-score sequences against the model
``POST /v1/stream/ingest``            absorb sequences into the live model
``GET  /v1/clusters``                 cluster summary of the active epoch
``GET  /v1/stats``                    dispatcher / registry counters
``GET  /healthz``                     liveness and the active model epoch
``GET  /metrics``                     Prometheus text exposition
``POST /admin/models/{name}/reload``  hot-swap the served model
====================================  =========================================

Request handling is single-threaded on the event loop; scoring runs
inline in the dispatcher flush (numpy releases nothing useful to
overlap) and model mutation (`ingest`) happens between flushes, so no
lock guards the model itself — the registry's build-then-swap is the
only cross-request synchronization, and it exists for *swaps*, not
scoring.
"""

from __future__ import annotations

import re
import time
from typing import Any

from ..obs import get_logger, get_registry, to_prometheus_text
from .batching import MicroBatcher, QueueFullError
from .http import (
    HttpRequest,
    HttpResponse,
    HttpServer,
    error_response,
    json_response,
)
from .registry import ModelLoadError, ModelRegistry

__all__ = ["ServeApp"]

_logger = get_logger("serve.app")

_RELOAD_PATH = re.compile(r"^/admin/models/([A-Za-z0-9_.-]+)/reload$")

#: Retry-After seconds suggested to shed clients. One flush is usually
#: enough for the queue to drain a slot; a full second is the
#: conservative, cache-friendly hint.
RETRY_AFTER_SECONDS = 1


def _sequences_from_payload(payload: Any) -> list[list[str]]:
    """Normalize a request body into a list of symbol sequences.

    Accepts ``{"sequences": ["acgt", ...]}`` (each entry a string of
    one-character symbols or a list of symbol tokens) or the singular
    ``{"sequence": "acgt"}``.
    """
    if not isinstance(payload, dict):
        raise ValueError("body must be a JSON object")
    if "sequence" in payload and "sequences" not in payload:
        raw = [payload["sequence"]]
    else:
        raw = payload.get("sequences")
    if not isinstance(raw, list) or not raw:
        raise ValueError("body must carry a non-empty 'sequences' array")
    sequences: list[list[str]] = []
    for entry in raw:
        if isinstance(entry, str):
            sequences.append(list(entry))
        elif isinstance(entry, list) and all(isinstance(s, str) for s in entry):
            sequences.append(list(entry))
        else:
            raise ValueError(
                "each sequence must be a string or a list of symbol strings"
            )
    return sequences


class ServeApp:
    """The serving application: routes, counters and lifecycle."""

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 64,
        max_queue: int = 256,
    ) -> None:
        self.registry = registry
        self.batcher = MicroBatcher(
            registry=registry, max_batch=max_batch, max_queue=max_queue
        )
        self.server = HttpServer(self.handle)
        self.started_unix = time.time()

    # -- lifecycle ----------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the dispatcher and listen; returns the bound address."""
        self.batcher.start()
        bound = await self.server.start(host, port)
        _logger.info("serving", extra={"host": bound[0], "port": bound[1]})
        return bound

    async def close(self) -> None:
        """Stop accepting, then stop dispatching."""
        await self.server.close()
        await self.batcher.close()

    async def __aenter__(self) -> "ServeApp":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- routing ------------------------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        """Route one request; every endpoint's metrics funnel through here."""
        registry = get_registry()
        started = time.perf_counter()
        endpoint, response = await self._route(request)
        if registry.enabled:
            registry.counter("serve.requests", endpoint=endpoint).inc()
            registry.timer("serve.request_seconds", endpoint=endpoint).record(
                time.perf_counter() - started
            )
            if response.status >= 500:
                registry.counter("serve.errors").inc()
        return response

    async def _route(self, request: HttpRequest) -> tuple[str, HttpResponse]:
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            return "healthz", self._healthz()
        if path == "/metrics":
            return "metrics", self._metrics(request)
        if path == "/v1/classify":
            if request.method != "POST":
                return "classify", error_response(405, "POST only")
            return "classify", await self._classify(request)
        if path == "/v1/stream/ingest":
            if request.method != "POST":
                return "ingest", error_response(405, "POST only")
            return "ingest", self._ingest(request)
        if path == "/v1/clusters":
            return "clusters", self._clusters(request)
        if path == "/v1/stats":
            return "stats", self._stats(request)
        match = _RELOAD_PATH.match(path)
        if match:
            if request.method != "POST":
                return "reload", error_response(405, "POST only")
            return "reload", self._reload(request, match.group(1))
        return "unknown", error_response(404, f"no route for {path}")

    # -- endpoints ----------------------------------------------------------------

    async def _classify(self, request: HttpRequest) -> HttpResponse:
        try:
            sequences = _sequences_from_payload(request.json())
        except ValueError as exc:
            return error_response(400, str(exc))
        try:
            outcomes, version = await self.batcher.submit(sequences)
        except QueueFullError as exc:
            return error_response(
                503, str(exc), **{"Retry-After": str(RETRY_AFTER_SECONDS)}
            )
        except KeyError as exc:
            return error_response(503, f"model not loaded: {exc}")
        results = [
            {"error": "unencodable sequence"} if outcome is None
            else outcome.to_dict()
            for outcome in outcomes
        ]
        registry = get_registry()
        if registry.enabled:
            classified = sum(
                1 for o in outcomes if o is not None and o.cluster_id is not None
            )
            registry.counter("serve.classified").inc(classified)
            registry.counter("serve.outliers").inc(
                sum(1 for o in outcomes if o is not None and o.cluster_id is None)
            )
        return json_response(
            {
                "model": version.name,
                "epoch": version.epoch,
                "results": results,
            }
        )

    def _ingest(self, request: HttpRequest) -> HttpResponse:
        """Absorb sequences into the live model (§4.4 streaming join).

        Each sequence joins through
        :meth:`~repro.core.cluseq.ClusteringResult.assign_and_absorb`,
        which allocates its index. Mutation bumps each touched PST's
        version counter, which takes the tree off the kernel: from the
        next classify flush on the scorer runs the reference
        ``similarity()`` DP on it instead of re-flattening it; untouched
        trees stay on the batch kernel.
        """
        try:
            sequences = _sequences_from_payload(request.json())
        except ValueError as exc:
            return error_response(400, str(exc))
        try:
            version = self.registry.get()
        except KeyError as exc:
            return error_response(503, f"model not loaded: {exc}")
        assignments: list[int | None] = []
        absorbed = 0
        skipped = 0
        for symbols in sequences:
            encoded = version.encode(symbols)
            if encoded is None:
                assignments.append(None)
                skipped += 1
                continue
            cluster_id = version.result.assign_and_absorb(encoded)
            assignments.append(cluster_id)
            if cluster_id is not None:
                absorbed += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("serve.ingested").inc(len(sequences))
            registry.counter("serve.ingest_absorbed").inc(absorbed)
        return json_response(
            {
                "model": version.name,
                "epoch": version.epoch,
                "assignments": assignments,
                "absorbed": absorbed,
                "skipped": skipped,
            }
        )

    def _clusters(self, request: HttpRequest) -> HttpResponse:
        try:
            version = self.registry.get()
        except KeyError as exc:
            return error_response(503, f"model not loaded: {exc}")
        clusters = [
            {
                "cluster": cluster.cluster_id,
                "size": cluster.size,
                "pst_nodes": cluster.pst.node_count,
            }
            for cluster in sorted(
                version.result.clusters, key=lambda cl: -cl.size
            )
        ]
        payload = version.describe()
        payload["clusters"] = clusters
        return json_response(payload)

    def _stats(self, request: HttpRequest) -> HttpResponse:
        try:
            version = self.registry.get()
            models = {version.name: version.describe()}
        except KeyError:
            models = {}
        return json_response(
            {
                "uptime_seconds": time.time() - self.started_unix,
                "batching": self.batcher.stats.to_dict(),
                "models": models,
                "connections": self.server.connections,
            }
        )

    def _healthz(self) -> HttpResponse:
        body: dict[str, Any] = {"status": "ok"}
        try:
            version = self.registry.get()
            body["model"] = version.name
            body["epoch"] = version.epoch
        except KeyError:
            body["status"] = "degraded"
            body["model"] = None
        status = 200 if body["status"] == "ok" else 503
        return json_response(body, status=status)

    def _metrics(self, request: HttpRequest) -> HttpResponse:
        registry = get_registry()
        if not registry.enabled:
            return HttpResponse(
                status=200,
                body=b"# metrics registry disabled\n",
                content_type="text/plain; version=0.0.4",
            )
        assert hasattr(registry, "snapshot")
        text = to_prometheus_text(registry)  # type: ignore[arg-type]
        return HttpResponse(
            status=200,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        )

    def _reload(self, request: HttpRequest, name: str) -> HttpResponse:
        source: str | None = None
        if request.body:
            try:
                payload = request.json()
            except ValueError as exc:
                return error_response(400, str(exc))
            if not isinstance(payload, dict):
                return error_response(400, "body must be a JSON object")
            if payload.get("path") is not None:
                if not isinstance(payload["path"], str):
                    return error_response(400, "'path' must be a string")
                source = payload["path"]
        try:
            version = self.registry.reload(name, source=source)
        except KeyError:
            return error_response(404, f"no model named {name!r}")
        except ModelLoadError as exc:
            return error_response(422, str(exc))
        _logger.info(
            "model reloaded",
            extra={"model": name, "epoch": version.epoch,
                   "source": version.source},
        )
        return json_response(version.describe())
