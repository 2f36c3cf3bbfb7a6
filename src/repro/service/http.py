"""A deliberately small asyncio HTTP/1.1 layer.

The service speaks plain HTTP so any client (curl, a notebook, CI) can
drive it, but pulling in a web framework would violate the repo's
no-new-dependencies rule -- so this module implements the sliver of
HTTP/1.1 the service actually needs: request parsing with a bounded
header/body size, JSON responses, and chunk-less streaming bodies
(SSE / NDJSON) over ``Connection: close``.

Closing the connection after every response is a feature here, not a
shortcut: it makes "the stream ended" unambiguous for event subscribers
and removes keep-alive state machines from the attack/bug surface.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

#: Upper bounds keeping a misbehaving client from ballooning memory.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Seconds a connection gets to deliver its whole request (head and
#: body), so a client that connects and stalls cannot hold a handler
#: forever.  Responses and event streams are not bounded.
REQUEST_READ_TIMEOUT_S = 30.0

STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """Maps straight to an error response."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        if not self.body:
            raise HttpError(400, "request body must be a JSON document")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


async def read_request(reader) -> Optional[Request]:
    """Parse one request off the wire; ``None`` on a clean early close.

    Every malformed request raises :class:`HttpError` (400, or 413 over
    a size bound), and one not delivered within
    :data:`REQUEST_READ_TIMEOUT_S` raises a 408.
    """
    try:
        return await asyncio.wait_for(
            _read_request(reader), REQUEST_READ_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        raise HttpError(
            408, f"request not received within {REQUEST_READ_TIMEOUT_S:g} s"
        ) from None


async def _read_request(reader) -> Optional[Request]:
    head = b""
    while b"\r\n\r\n" not in head:
        chunk = await reader.read(4096)
        if not chunk:
            if head.strip():
                raise HttpError(400, "truncated request")
            return None
        head += chunk
        if len(head) > MAX_HEADER_BYTES:
            raise HttpError(413, "request headers too large")
    head, _, rest = head.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        split = urlsplit(target)
    except ValueError as exc:
        raise HttpError(400, f"malformed request target: {exc}") from None
    query = dict(parse_qsl(split.query))
    body = rest
    declared = headers.get("content-length", "0") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise HttpError(400, f"malformed Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
    while len(body) < length:
        chunk = await reader.read(length - len(body))
        if not chunk:
            raise HttpError(400, "truncated request body")
        body += chunk
    return Request(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body[:length],
    )


def response_head(
    status: int,
    content_type: str,
    extra: Optional[Dict[str, str]] = None,
    content_length: Optional[int] = None,
) -> bytes:
    """Status line + headers + blank line, always ``Connection: close``."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def json_response(
    status: int,
    payload: Any,
    extra: Optional[Dict[str, str]] = None,
) -> bytes:
    body = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(
        "utf-8"
    )
    return (
        response_head(status, "application/json", extra, len(body)) + body
    )


def raw_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra: Optional[Dict[str, str]] = None,
) -> bytes:
    return response_head(status, content_type, extra, len(body)) + body


def error_response(error: HttpError) -> bytes:
    return json_response(
        error.status,
        {"error": error.message, "status": error.status},
        error.headers,
    )


def sse_frame(event: Dict[str, Any]) -> bytes:
    """One Server-Sent-Events frame: ``event:`` kind + ``data:`` JSON."""
    kind = event.get("kind", "message")
    data = json.dumps(event, sort_keys=True)
    return f"event: {kind}\ndata: {data}\n\n".encode("utf-8")


def ndjson_frame(event: Dict[str, Any]) -> bytes:
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")


def match_path(path: str, pattern: Tuple[str, ...]) -> Optional[Tuple[str, ...]]:
    """Match ``/v1/sweeps/abc/result`` against ``("v1", "sweeps", "*",
    "result")``; returns the wildcard captures or ``None``.
    """
    parts = tuple(part for part in path.split("/") if part)
    if len(parts) != len(pattern):
        return None
    captured = []
    for part, expect in zip(parts, pattern):
        if expect == "*":
            captured.append(part)
        elif part != expect:
            return None
    return tuple(captured)
