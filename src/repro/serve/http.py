"""A minimal asyncio HTTP/1.1 layer for the serving subsystem.

Framework-free by design (stdlib ``asyncio`` streams only): the serve
layer must be shippable wherever the core engine is, and the protocol
surface it needs — parse a request, dispatch, write a response, keep
the connection alive — is small enough that a dependency would cost
more than these few hundred lines.

The pieces:

* :class:`HttpRequest` / :class:`HttpResponse` — plain dataclasses for
  one exchange; helpers :func:`json_response` and :func:`error_response`
  build the JSON bodies every endpoint speaks.
* :func:`read_request` — incremental request parser over a
  ``StreamReader`` with hard limits (line length, header count, body
  size) so a misbehaving client cannot balloon server memory.
* :class:`HttpServer` — accept loop wrapping ``asyncio.start_server``;
  each connection runs a keep-alive loop that feeds parsed requests to
  an async handler and writes its responses back.
* :func:`http_call` — a tiny client used by the tests, the load
  generator benchmark and CI smoke checks, so client and server speak
  through one implementation of the wire format.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HttpProtocolError",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "error_response",
    "http_call",
    "json_response",
    "read_request",
]

#: Hard parser limits; requests beyond them are rejected with 4xx.
MAX_REQUEST_LINE = 8192
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reason phrases for the statuses the serving layer emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpProtocolError(ValueError):
    """A malformed or over-limit request; maps to a 4xx response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body parsed as JSON; raises :class:`HttpProtocolError`."""
        if not self.body:
            raise HttpProtocolError(400, "request body is empty")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpProtocolError(400, f"request body is not JSON: {exc}") from exc

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class HttpResponse:
    """One response; ``Content-Length`` is derived from ``body``."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self, keep_alive: bool = True) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for key, value in self.headers.items():
            lines.append(f"{key}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("ascii") + self.body

    def json(self) -> Any:
        """The body parsed as JSON (client-side convenience)."""
        return json.loads(self.body)


def json_response(payload: Any, status: int = 200, **headers: str) -> HttpResponse:
    """A JSON-encoded :class:`HttpResponse` for *payload*.

    Strict RFC 8259: a non-finite float raises ``ValueError`` here
    instead of reaching the wire as ``NaN`` / ``Infinity``.
    """
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    return HttpResponse(status=status, body=body, headers=dict(headers))


def error_response(status: int, message: str, **headers: str) -> HttpResponse:
    """The uniform error body: ``{"error": <message>}``."""
    return json_response({"error": message}, status=status, **headers)


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> HttpRequest | None:
    """Parse one request from *reader*; ``None`` on a clean EOF.

    Raises :class:`HttpProtocolError` for malformed or over-limit
    input — the server maps it to a 4xx response and closes.
    """
    try:
        raw_line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise HttpProtocolError(400, "truncated request line") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpProtocolError(400, "request line too long") from exc
    if len(raw_line) > MAX_REQUEST_LINE:
        raise HttpProtocolError(400, "request line too long")
    parts = raw_line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpProtocolError(400, "malformed request line")
    method, target, _version = parts
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))
    headers: dict[str, str] = {}
    # Count header lines, not distinct names: a repeated name would
    # otherwise stream past the cap.
    for lines in itertools.count():
        if lines > MAX_HEADER_COUNT:
            raise HttpProtocolError(400, "too many headers")
        try:
            raw_header = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
            raise HttpProtocolError(400, "truncated headers") from exc
        line = raw_header.decode("latin-1").rstrip("\r\n")
        if not line:
            break
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise HttpProtocolError(400, "bad Content-Length") from exc
        if length < 0:
            raise HttpProtocolError(400, "bad Content-Length")
        if length > max_body:
            raise HttpProtocolError(413, f"body exceeds {max_body} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpProtocolError(400, "truncated body") from exc
    elif headers.get("transfer-encoding"):
        raise HttpProtocolError(400, "chunked requests are not supported")
    return HttpRequest(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


#: The application contract: one request in, one response out.
Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


class HttpServer:
    """Keep-alive HTTP/1.1 accept loop over ``asyncio.start_server``.

    The handler is applied per request; handler exceptions become 500
    responses (and the connection survives), protocol errors become
    4xx and close the connection. ``close()`` stops accepting and
    waits for the listener to go away; in-flight handlers finish on
    their own connections.
    """

    def __init__(self, handler: Handler, max_body: int = MAX_BODY_BYTES) -> None:
        self._handler = handler
        self._max_body = max_body
        self._server: asyncio.base_events.Server | None = None
        self.connections = 0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        return str(sockname[0]), int(sockname[1])

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                try:
                    request = await read_request(reader, self._max_body)
                except HttpProtocolError as exc:
                    writer.write(
                        error_response(exc.status, str(exc)).encode(keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                try:
                    response = await self._handler(request)
                except Exception as exc:  # noqa: BLE001 - boundary
                    response = error_response(500, f"internal error: {exc}")
                keep = request.keep_alive
                writer.write(response.encode(keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-exchange; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


async def http_call(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any | None = None,
    timeout: float = 30.0,
) -> HttpResponse:
    """One client request against a running server (tests/bench/CI).

    Opens a fresh connection per call — deliberately the simplest
    correct client; the load generator layers connection reuse on top
    where throughput matters.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return parse_response(raw)


def parse_response(raw: bytes) -> HttpResponse:
    """Parse a full response byte string (client side)."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status_parts = lines[0].split(" ", 2)
    if len(status_parts) < 2 or not status_parts[0].startswith("HTTP/1."):
        raise HttpProtocolError(400, "malformed status line")
    headers: dict[str, str] = {}
    content_type = "application/json"
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            key = name.strip().lower()
            headers[key] = value.strip()
            if key == "content-type":
                content_type = value.strip()
    return HttpResponse(
        status=int(status_parts[1]),
        body=body,
        content_type=content_type,
        headers=headers,
    )
