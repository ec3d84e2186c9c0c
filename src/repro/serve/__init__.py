"""Clustering-as-a-service: async HTTP serving over versioned models.

The subsystem layers (each importable on its own):

* :mod:`repro.serve.http` — framework-free asyncio HTTP/1.1 wire layer.
* :mod:`repro.serve.registry` — versioned model registry with
  build-then-swap hot reload.
* :mod:`repro.serve.batching` — bounded-queue micro-batching dispatcher
  coalescing classify requests into single kernel invocations.
* :mod:`repro.serve.app` — endpoint routing and the server lifecycle.

Layering: ``serve`` may import ``core``, ``stream``, ``sequences`` and
``obs``; nothing in the engine imports ``serve`` (enforced by CLQ001).
"""

from __future__ import annotations

from .app import ServeApp
from .batching import BatchStats, MicroBatcher, QueueFullError
from .http import (
    HttpProtocolError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    error_response,
    http_call,
    json_response,
)
from .registry import (
    ClassifyOutcome,
    ModelLoadError,
    ModelRegistry,
    ModelVersion,
    load_model_payload,
)

__all__ = [
    "BatchStats",
    "ClassifyOutcome",
    "HttpProtocolError",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "MicroBatcher",
    "ModelLoadError",
    "ModelRegistry",
    "ModelVersion",
    "QueueFullError",
    "ServeApp",
    "error_response",
    "http_call",
    "json_response",
    "load_model_payload",
]
