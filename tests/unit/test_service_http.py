"""Unit tests for the framework-free HTTP layer."""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import http
from repro.service.http import (
    HttpError,
    MAX_HEADER_BYTES,
    Request,
    error_response,
    json_response,
    match_path,
    ndjson_frame,
    raw_response,
    read_request,
    response_head,
    sse_frame,
)


class _Feed:
    """Minimal StreamReader stand-in fed from a byte string."""

    def __init__(self, payload: bytes) -> None:
        self._payload = payload

    async def read(self, n: int) -> bytes:
        chunk, self._payload = self._payload[:n], self._payload[n:]
        return chunk


def _parse(raw: bytes):
    return asyncio.run(read_request(_Feed(raw)))


class TestReadRequest:
    def test_parses_method_path_query_headers_body(self):
        body = b'{"a": 1}'
        raw = (
            b"POST /v1/sweeps?x=1 HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"X-Tenant: team-a\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        request = _parse(raw)
        assert request.method == "POST"
        assert request.path == "/v1/sweeps"
        assert request.query == {"x": "1"}
        assert request.headers["x-tenant"] == "team-a"
        assert request.json() == {"a": 1}

    def test_clean_close_returns_none(self):
        assert _parse(b"") is None

    def test_truncated_request_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"GET /healthz HTT")
        assert excinfo.value.status == 400

    def test_oversized_headers_are_413(self):
        raw = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_HEADER_BYTES + 1)
        with pytest.raises(HttpError) as excinfo:
            _parse(raw)
        assert excinfo.value.status == 413

    def test_invalid_json_body_is_400(self):
        raw = (
            b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 3\r\n\r\n{x}"
        )
        with pytest.raises(HttpError) as excinfo:
            _parse(raw).json()
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("declared", [b"abc", b"-1", b"+3", b"1e3"])
    def test_malformed_content_length_is_400(self, declared):
        # A negative length must not shorten the body, and a
        # non-numeric one must not escape as a ValueError (a 500).
        raw = (
            b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: " + declared
            + b"\r\n\r\n{}"
        )
        with pytest.raises(HttpError) as excinfo:
            _parse(raw)
        assert excinfo.value.status == 400

    def test_malformed_target_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"GET http://[::1/ HTTP/1.1\r\n\r\n")
        assert excinfo.value.status == 400

    def test_stalled_client_is_408(self, monkeypatch):
        class Stalled:
            async def read(self, n: int) -> bytes:
                await asyncio.sleep(3600)

        monkeypatch.setattr(http, "REQUEST_READ_TIMEOUT_S", 0.05)
        with pytest.raises(HttpError) as excinfo:
            asyncio.run(read_request(Stalled()))
        assert excinfo.value.status == 408


#: Fragments that steer random requests into every parser branch.
_TOKENS = [
    b"GET", b"POST", b" ", b"/", b"/v1/sweeps", b"?a=1&b", b"%zz",
    b"http://[::1", b"HTTP/1.1", b"\r\n", b"\r\n\r\n", b":",
    b"Content-Length", b"content-length: ", b"0", b"3", b"-1", b"abc",
    b"99999999999", b"\xff\xfe", b"\x00", b"{}",
]
_PIECE = st.one_of(st.sampled_from(_TOKENS), st.binary(max_size=8))
_FIELD = st.lists(_PIECE, max_size=4).map(b"".join)
#: Request-shaped bytes: a request line, header lines (often a
#: Content-Length with a junk value) and a body.
_REQUESTS = st.builds(
    lambda line, headers, body: (
        b" ".join(line) + b"\r\n"
        + b"".join(name + b": " + value + b"\r\n" for name, value in headers)
        + b"\r\n" + body
    ),
    st.tuples(_FIELD, _FIELD, _FIELD),
    st.lists(
        st.tuples(
            st.one_of(st.just(b"Content-Length"), _FIELD), _FIELD
        ),
        max_size=3,
    ),
    st.binary(max_size=16),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=256),
        st.lists(_PIECE, max_size=24).map(b"".join),
        _REQUESTS,
    )
)
def test_any_bytes_parse_or_raise_http_error(raw):
    """Whatever a client sends, the parser answers a request, a clean
    close, or an HttpError -- never another exception (a 500)."""
    try:
        parsed = _parse(raw)
    except HttpError as exc:
        assert 400 <= exc.status < 500
    else:
        assert parsed is None or isinstance(parsed, Request)


class TestResponses:
    def test_json_response_shape(self):
        raw = json_response(201, {"b": 2, "a": 1})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 201 Created\r\n")
        assert b"Connection: close" in head
        assert b"Content-Type: application/json" in head
        assert json.loads(body) == {"a": 1, "b": 2}
        assert f"Content-Length: {len(body)}".encode() in head

    def test_raw_response_preserves_bytes(self):
        payload = b'{"exact": true}\n'
        raw = raw_response(200, payload)
        assert raw.endswith(payload)

    def test_error_response_carries_extra_headers(self):
        raw = error_response(
            HttpError(429, "queue full", {"Retry-After": "5"})
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"429 Too Many Requests" in head
        assert b"Retry-After: 5" in head
        assert json.loads(body)["error"] == "queue full"

    def test_streaming_head_has_no_content_length(self):
        head = response_head(200, "text/event-stream")
        assert b"Content-Length" not in head


class TestFrames:
    def test_sse_frame(self):
        frame = sse_frame({"kind": "job_finish", "data": {"job": "k"}})
        text = frame.decode()
        assert text.startswith("event: job_finish\n")
        assert text.endswith("\n\n")
        payload = json.loads(text.split("data: ", 1)[1].strip())
        assert payload["data"]["job"] == "k"

    def test_ndjson_frame_is_one_line(self):
        frame = ndjson_frame({"kind": "run_start"})
        assert frame.count(b"\n") == 1
        assert json.loads(frame)["kind"] == "run_start"


class TestMatchPath:
    def test_wildcards_capture(self):
        assert match_path(
            "/v1/sweeps/abc/result", ("v1", "sweeps", "*", "result")
        ) == ("abc",)

    def test_length_mismatch_is_none(self):
        assert match_path("/v1/sweeps", ("v1", "sweeps", "*")) is None

    def test_literal_mismatch_is_none(self):
        assert match_path("/v1/jobs", ("v1", "sweeps")) is None


class TestServerAnswers:
    """The running server maps parser failures to their status codes."""

    @staticmethod
    def _exchange(tmp_path, raw: bytes) -> bytes:
        from repro.service.app import ServiceApp
        from repro.service.config import ServiceConfig

        async def go() -> bytes:
            app = ServiceApp(ServiceConfig(data_dir=str(tmp_path), port=0))
            await app.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", app.port
                )
                writer.write(raw)
                await writer.drain()
                answer = await asyncio.wait_for(reader.read(), 10)
                writer.close()
                return answer
            finally:
                await app.stop()

        return asyncio.run(go())

    def test_malformed_content_length_answers_400(self, tmp_path):
        answer = self._exchange(
            tmp_path,
            b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
        )
        assert answer.startswith(b"HTTP/1.1 400 ")

    @staticmethod
    def _post_spec(tmp_path, spec: dict) -> bytes:
        body = json.dumps(spec).encode()
        return TestServerAnswers._exchange(
            tmp_path,
            b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\nConnection: close\r\n\r\n"
            + body,
        )

    def test_fractional_integer_field_answers_400(self, tmp_path):
        answer = self._post_spec(
            tmp_path,
            {"faults": "none", "bins": [[0.2, 0.3]], "sets_per_bin": 2.7},
        )
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"must be a JSON integer" in answer

    @pytest.mark.parametrize(
        "repeat,message",
        [
            ({"bins": [[0.2, 0.3], [0.2, 0.3]], "sets_per_bin": 5}, b"bins repeat"),
            ({"schemes": ["MKSS_ST", "MKSS_ST", "MKSS_DP"]}, b"schemes repeat"),
        ],
        ids=["bins", "schemes"],
    )
    def test_repeated_bin_or_scheme_answers_400(self, tmp_path, repeat, message):
        answer = self._post_spec(tmp_path, {"faults": "none", **repeat})
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert message in answer

    def test_removed_serial_backend_answers_400(self, tmp_path):
        answer = self._post_spec(tmp_path, {"faults": "none", "backend": "serial"})
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"unknown backend" in answer

    def test_removed_fold_knob_answers_400(self, tmp_path):
        answer = self._post_spec(tmp_path, {"faults": "none", "fold": True})
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"unknown sweep-spec key" in answer

    def test_silent_client_answers_408(self, tmp_path, monkeypatch):
        monkeypatch.setattr(http, "REQUEST_READ_TIMEOUT_S", 0.1)
        answer = self._exchange(tmp_path, b"GET /healthz HTTP/1.1\r\n")
        assert answer.startswith(b"HTTP/1.1 408 ")
