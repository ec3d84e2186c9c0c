"""The serving subsystem's HTTP/1.1 wire layer.

Parser limits, keep-alive semantics, and the server loop's error
containment (handler exceptions become 500s without killing the
connection; protocol errors become 4xx and close it).
"""

import asyncio
import json

import pytest

from repro.serve.http import (
    MAX_HEADER_COUNT,
    HttpProtocolError,
    HttpResponse,
    HttpServer,
    error_response,
    http_call,
    json_response,
    parse_response,
    read_request,
)


def run(coro):
    return asyncio.run(coro)


def parse_bytes(raw, **kwargs):
    async def inner():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return run(inner())


class TestRequestParser:
    def test_simple_get(self):
        request = parse_bytes(b"GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/healthz"
        assert request.query == {"verbose": "1"}
        assert request.headers["host"] == "x"
        assert request.body == b""
        assert request.keep_alive

    def test_post_with_body(self):
        body = json.dumps({"sequences": ["ab"]}).encode()
        raw = (
            b"POST /v1/classify HTTP/1.1\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n" + body
        )
        request = parse_bytes(raw)
        assert request.method == "POST"
        assert request.json() == {"sequences": ["ab"]}
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse_bytes(b"") is None

    def test_truncated_request_line(self):
        with pytest.raises(HttpProtocolError, match="truncated"):
            parse_bytes(b"GET /x HTTP/1.1")

    def test_malformed_request_line(self):
        with pytest.raises(HttpProtocolError, match="malformed"):
            parse_bytes(b"NOT-HTTP\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(HttpProtocolError, match="Content-Length"):
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")

    def test_negative_content_length(self):
        with pytest.raises(HttpProtocolError, match="Content-Length"):
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n")

    def test_oversized_body_is_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(HttpProtocolError) as excinfo:
            parse_bytes(raw, max_body=10)
        assert excinfo.value.status == 413

    def test_chunked_rejected(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(HttpProtocolError, match="chunked"):
            parse_bytes(raw)

    def test_malformed_header_line(self):
        with pytest.raises(HttpProtocolError, match="header"):
            parse_bytes(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")

    @pytest.mark.parametrize("distinct", [True, False])
    def test_header_cap_counts_lines(self, distinct):
        """The cap is on header lines: repeating one name cannot pass it."""

        def request(lines):
            headers = b"".join(
                (b"X-%d: 1\r\n" % i) if distinct else b"X-A: 1\r\n"
                for i in range(lines)
            )
            return b"GET / HTTP/1.1\r\n" + headers + b"\r\n"

        assert parse_bytes(request(MAX_HEADER_COUNT)) is not None
        for lines in (MAX_HEADER_COUNT + 1, 5000):
            with pytest.raises(HttpProtocolError, match="too many headers") as exc:
                parse_bytes(request(lines))
            assert exc.value.status == 400

    def test_empty_body_json_raises(self):
        request = parse_bytes(b"GET / HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpProtocolError, match="empty"):
            request.json()

    def test_non_json_body_raises(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{"
        with pytest.raises(HttpProtocolError, match="not JSON"):
            parse_bytes(raw).json()


class TestResponses:
    def test_json_response_roundtrip(self):
        response = json_response({"a": 1}, status=200, **{"X-Extra": "y"})
        parsed = parse_response(response.encode())
        assert parsed.status == 200
        assert parsed.json() == {"a": 1}
        assert parsed.headers["x-extra"] == "y"
        assert parsed.headers["content-type"] == "application/json"

    def test_error_response_shape(self):
        response = error_response(503, "full", **{"Retry-After": "1"})
        assert response.status == 503
        assert response.json() == {"error": "full"}
        assert response.headers["Retry-After"] == "1"

    def test_encode_connection_header(self):
        assert b"Connection: close" in HttpResponse().encode(keep_alive=False)
        assert b"Connection: keep-alive" in HttpResponse().encode(keep_alive=True)

    def test_parse_response_malformed(self):
        with pytest.raises(HttpProtocolError):
            parse_response(b"garbage\r\n\r\n")


class TestServer:
    def test_roundtrip_and_handler_error_containment(self):
        async def handler(request):
            if request.path == "/boom":
                raise RuntimeError("kaboom")
            return json_response({"path": request.path})

        async def scenario():
            server = HttpServer(handler)
            host, port = await server.start()
            try:
                ok = await http_call(host, port, "GET", "/fine")
                boom = await http_call(host, port, "GET", "/boom")
                after = await http_call(host, port, "GET", "/still-up")
            finally:
                await server.close()
            return ok, boom, after

        ok, boom, after = run(scenario())
        assert ok.status == 200 and ok.json() == {"path": "/fine"}
        assert boom.status == 500 and "kaboom" in boom.json()["error"]
        assert after.status == 200

    def test_keep_alive_serves_multiple_requests(self):
        async def handler(request):
            return json_response({"n": request.query.get("n")})

        async def scenario():
            server = HttpServer(handler)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                replies = []
                for n in ("1", "2"):
                    writer.write(
                        f"GET /?n={n} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                    )
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(
                        [
                            line.split(b":")[1]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")
                        ][0]
                    )
                    body = await reader.readexactly(length)
                    replies.append(json.loads(body))
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()
            return replies

        assert run(scenario()) == [{"n": "1"}, {"n": "2"}]

    def test_protocol_error_gets_4xx_and_close(self):
        async def handler(request):  # pragma: no cover - never reached
            return json_response({})

        async def scenario():
            server = HttpServer(handler)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"TOTALLY WRONG\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()
            return parse_response(raw)

        response = run(scenario())
        assert response.status == 400
        assert "malformed" in response.json()["error"]

    def test_double_start_rejected(self):
        async def handler(request):  # pragma: no cover
            return json_response({})

        async def scenario():
            server = HttpServer(handler)
            await server.start()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    await server.start()
            finally:
                await server.close()

        run(scenario())
