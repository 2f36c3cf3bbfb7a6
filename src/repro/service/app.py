"""Routes and server lifecycle for ``repro-mk serve``.

Endpoints (all JSON unless noted):

========================================  ==================================
``GET  /healthz``                         liveness probe
``GET  /v1/jobs``                         every known job's status
``POST /v1/sweeps``                       submit a sweep spec; ``201`` for
                                          new work, ``200`` for an
                                          idempotent re-submission (cache
                                          hit or attach), ``429`` +
                                          ``Retry-After`` when the queue or
                                          the tenant bound is full
``GET  /v1/sweeps/<id>``                  job status
``GET  /v1/sweeps/<id>/result``           the canonical result document
                                          (``409`` until the job is done)
``GET  /v1/sweeps/<id>/events``           the run's event stream -- SSE when
                                          ``Accept: text/event-stream``,
                                          NDJSON otherwise; replays history,
                                          then follows live until the job
                                          finishes
========================================  ==================================

Tenancy is the ``X-Tenant`` request header (default ``anonymous``) and
exists purely for fair admission control, not auth.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Optional

from ..errors import ConfigurationError
from .config import ServiceConfig
from .http import (
    HttpError,
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
from .jobs import STREAM_END, JobManager, QueueFull
from .spec import SweepSpec


class ServiceApp:
    """One server instance: owns the job manager and the listener."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.manager: Optional[JobManager] = None
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound port (useful when configured with ``port=0``)."""
        if self._server is None:
            raise ConfigurationError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.manager = JobManager(self.config, loop)
        self.manager.start_workers()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.manager is not None:
            await self.manager.close()
            self.manager = None

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer)
            except HttpError as exc:
                writer.write(error_response(exc))
            except Exception as exc:  # surface, never hang the client
                writer.write(
                    error_response(HttpError(500, f"internal error: {exc}"))
                )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request, writer) -> None:
        manager = self.manager
        assert manager is not None
        if request.path == "/healthz" and request.method == "GET":
            writer.write(json_response(200, {"status": "ok"}))
            return
        if match_path(request.path, ("v1", "jobs")) is not None:
            if request.method != "GET":
                raise HttpError(405, "use GET")
            writer.write(
                json_response(
                    200,
                    {
                        "jobs": [
                            job.status()
                            for job in sorted(
                                manager.jobs.values(),
                                key=lambda j: j.submitted_at,
                            )
                        ]
                    },
                )
            )
            return
        if match_path(request.path, ("v1", "sweeps")) is not None:
            if request.method != "POST":
                raise HttpError(405, "use POST to submit a sweep spec")
            self._submit(request, writer)
            return
        captures = match_path(request.path, ("v1", "sweeps", "*"))
        if captures is not None:
            if request.method != "GET":
                raise HttpError(405, "use GET")
            job = manager.jobs.get(captures[0])
            if job is None:
                raise HttpError(404, f"no job {captures[0]!r}")
            writer.write(json_response(200, job.status()))
            return
        captures = match_path(request.path, ("v1", "sweeps", "*", "result"))
        if captures is not None:
            if request.method != "GET":
                raise HttpError(405, "use GET")
            self._result(captures[0], writer)
            return
        captures = match_path(request.path, ("v1", "sweeps", "*", "events"))
        if captures is not None:
            if request.method != "GET":
                raise HttpError(405, "use GET")
            await self._stream_events(captures[0], request, writer)
            return
        raise HttpError(404, f"no route {request.method} {request.path}")

    # -- route bodies --------------------------------------------------

    def _submit(self, request: Request, writer) -> None:
        manager = self.manager
        assert manager is not None
        payload = request.json()
        try:
            spec = SweepSpec.from_dict(payload)
        except ConfigurationError as exc:
            raise HttpError(400, str(exc))
        tenant = request.headers.get("x-tenant", "anonymous") or "anonymous"
        try:
            job, created = manager.submit(spec, tenant)
        except QueueFull as exc:
            raise HttpError(
                429, str(exc), {"Retry-After": str(exc.retry_after_s)}
            )
        document = job.status()
        document["created"] = created
        writer.write(json_response(201 if created else 200, document))

    def _result(self, digest: str, writer) -> None:
        manager = self.manager
        assert manager is not None
        job = manager.jobs.get(digest)
        payload = manager.store.get_bytes(digest)
        if payload is not None:
            writer.write(raw_response(200, payload))
            return
        if job is None:
            raise HttpError(404, f"no job {digest!r}")
        if job.state == "failed":
            raise HttpError(409, f"job {digest} failed: {job.error}")
        raise HttpError(409, f"job {digest} is {job.state}; result not ready")

    async def _stream_events(
        self, digest: str, request: Request, writer
    ) -> None:
        manager = self.manager
        assert manager is not None
        if digest not in manager.jobs:
            raise HttpError(404, f"no job {digest!r}")
        use_sse = "text/event-stream" in request.headers.get("accept", "")
        frame = sse_frame if use_sse else ndjson_frame
        content_type = (
            "text/event-stream" if use_sse else "application/x-ndjson"
        )
        history, live = manager.subscribe(digest)
        writer.write(
            response_head(200, content_type, {"Cache-Control": "no-store"})
        )
        try:
            for event in history:
                writer.write(frame(event))
            await writer.drain()
            while live is not None:
                event = await live.get()
                if event is STREAM_END:
                    break
                writer.write(frame(event))
                await writer.drain()
        finally:
            if live is not None:
                manager.unsubscribe(digest, live)


async def _serve(config: ServiceConfig) -> None:
    app = ServiceApp(config)
    await app.start()
    manager = app.manager
    assert manager is not None
    for entry in manager.skipped:
        print(f"skipped unreadable job record {entry}", file=sys.stderr)
    if manager.recovered:
        print(
            f"recovered {len(manager.recovered)} interrupted job(s): "
            + ", ".join(manager.recovered),
            flush=True,
        )
    print(
        f"listening on http://{config.host}:{app.port} "
        f"(data: {config.data_dir})",
        flush=True,
    )
    try:
        await app.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await app.stop()


def serve(config: ServiceConfig) -> int:
    """Run the server until interrupted (the ``repro-mk serve`` body)."""
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    return 0
