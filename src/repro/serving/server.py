"""Stdlib-only JSON/HTTP front-end over the continuous-batching scheduler.

A small HTTP/1.1 server on ``asyncio`` streams (no third-party web framework,
matching the repo's no-new-dependencies rule) exposing

* ``POST /generate`` — a :class:`~repro.serving.requests.GenerationRequest`
  payload; streams tokens back incrementally as newline-delimited JSON chunks
  (``Transfer-Encoding: chunked``), ending with the full
  :class:`~repro.serving.requests.GenerationResult`.  ``"stream": false`` in
  the payload returns one final JSON object instead.
* ``POST /experiment`` — a full :class:`~repro.pipeline.spec.ExperimentSpec`
  payload, routed through :func:`~repro.pipeline.runner.run_experiment` on a
  pool worker (in a thread, so decoding keeps running).
* ``GET /stats`` — scheduler + session-pool metrics (queue depth, batch
  occupancy, tokens/sec).
* ``GET /metrics`` — the scheduler's
  :class:`~repro.obs.metrics.MetricsRegistry` in Prometheus text exposition
  format (scrape-ready); ``GET /metrics?format=json`` returns the structured
  snapshot instead.

Construction wires the pieces together: one :class:`SessionPool` sharing the
base session's calibration, one scheduler worker, and ``pool_size`` workers
for experiments.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.parse
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import MetricsRegistry, TraceSink
from repro.pipeline.session import SparseSession
from repro.pipeline.spec import SpecError
from repro.serving.pool import SessionPool
from repro.serving.requests import GenerationRequest, RequestError, run_experiment_payload
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerConfig
from repro.utils.logging import get_logger

logger = get_logger("serving.server")

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
                413: "Payload Too Large", 500: "Internal Server Error"}


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: (method, path, query, headers, body)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        raise _HTTPError(400, "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise _HTTPError(413, "headers too large") from exc
    if len(head) > _MAX_HEADER_BYTES:
        raise _HTTPError(413, "headers too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise _HTTPError(400, f"malformed request line: {lines[0]!r}") from exc
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1
    if length < 0:
        raise _HTTPError(400, "invalid Content-Length")
    if length > _MAX_BODY_BYTES:
        raise _HTTPError(413, "body too large")
    body = await reader.readexactly(length) if length else b""
    path, _, query_string = path.partition("?")
    query = dict(urllib.parse.parse_qsl(query_string))
    return method, path, query, headers, body


def _response_head(status: int, content_type: str, extra: str = "") -> bytes:
    return (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\nConnection: close\r\n{extra}\r\n"
    ).encode("latin-1")


def _json_response(writer: asyncio.StreamWriter, status: int, payload: Any) -> None:
    body = (json.dumps(payload, sort_keys=True, default=str) + "\n").encode()
    writer.write(_response_head(status, "application/json", f"Content-Length: {len(body)}\r\n"))
    writer.write(body)


def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")


class ServingServer:
    """The serving front-end: scheduler + session pool + HTTP endpoints."""

    def __init__(
        self,
        session: SparseSession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[SchedulerConfig] = None,
        pool_size: int = 2,
        registry: Optional[MetricsRegistry] = None,
        trace_sink: Optional[TraceSink] = None,
    ) -> None:
        # The pool calibrates the base session once; the scheduler gets its
        # own calibration-sharing worker so /experiment never borrows it.
        self.pool = SessionPool(session, size=pool_size)
        self.scheduler = ContinuousBatchingScheduler(
            session.share_calibration(), config, registry=registry, trace_sink=trace_sink
        )
        self.host = host
        self.port = port
        self._server: Optional[asyncio.Server] = None

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        await self.scheduler.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("serving on http://%s:%d", self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None  # start() above binds it
        await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ----------------------------------------------------------------- routing
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, query, _headers, body = await _read_request(reader)
                if (method, path) == ("POST", "/generate"):
                    await self._handle_generate(writer, body)
                elif (method, path) == ("POST", "/experiment"):
                    await self._handle_experiment(writer, body)
                elif (method, path) == ("GET", "/stats"):
                    _json_response(writer, 200, self.stats())
                elif (method, path) == ("GET", "/metrics"):
                    self._handle_metrics(writer, query)
                elif path in ("/generate", "/experiment", "/stats", "/metrics"):
                    raise _HTTPError(405, f"{method} not allowed on {path}")
                else:
                    raise _HTTPError(
                        404,
                        f"unknown path {path!r}; use /generate, /experiment, /stats, /metrics",
                    )
            except _HTTPError as exc:
                _json_response(writer, exc.status, {"error": exc.message})
            except (RequestError, SpecError) as exc:
                _json_response(writer, 400, {"error": str(exc)})
            except (ConnectionResetError, BrokenPipeError):
                raise  # client went away mid-response: nothing left to write
            except Exception as exc:  # pragma: no cover - defensive
                logger.exception("request failed")
                _json_response(writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # --------------------------------------------------------------- endpoints
    async def _handle_generate(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        stream = bool(payload.pop("stream", True))
        request = GenerationRequest.from_dict(payload)
        if not stream:
            result = await self.scheduler.submit(request)
            _json_response(writer, 200, result.to_dict())
            return
        # Queue (and validate) the request *before* committing to the chunked
        # head, so queue-full / over-budget errors still go out as a clean 400.
        token_stream = self.scheduler.stream(request)
        writer.write(_response_head(200, "application/x-ndjson", "Transfer-Encoding: chunked\r\n"))
        index = 0
        tokens: list = []
        final = {"done": True, "request_id": token_stream.request_id,
                 "prompt": list(request.prompt), "tokens": tokens}
        try:
            async for token in token_stream:
                tokens.append(token)
                _write_chunk(writer, (json.dumps({"index": index, "token": token}) + "\n").encode())
                await writer.drain()
                index += 1
            final["finish_reason"] = token_stream.finish_reason
        except RuntimeError as exc:
            # Server-side decode failure after the chunked response started:
            # surface it as a terminal error line, never as a second HTTP head.
            final = {"done": True, "request_id": token_stream.request_id,
                     "error": str(exc), "tokens": tokens}
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # The client dropped the stream (or the server is shutting the
            # handler down): stop decoding for it and free its KV slot now.
            self.scheduler.cancel(token_stream.request_id)
            raise
        _write_chunk(writer, (json.dumps(final, sort_keys=True) + "\n").encode())
        _write_chunk(writer, b"")  # terminal chunk

    async def _handle_experiment(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}") from exc

        def run() -> Dict[str, Any]:
            with self.pool.borrow() as worker:
                return run_experiment_payload(payload, session=worker)

        result = await asyncio.get_running_loop().run_in_executor(None, run)
        _json_response(writer, 200, result)

    def _handle_metrics(self, writer: asyncio.StreamWriter, query: Dict[str, str]) -> None:
        fmt = query.get("format", "prometheus")
        if fmt == "json":
            _json_response(writer, 200, self.scheduler.registry.snapshot())
            return
        if fmt != "prometheus":
            raise _HTTPError(400, f"unknown metrics format {fmt!r}; use 'prometheus' or 'json'")
        body = self.scheduler.registry.render_prometheus().encode()
        writer.write(_response_head(
            200, "text/plain; version=0.0.4; charset=utf-8", f"Content-Length: {len(body)}\r\n"
        ))
        writer.write(body)

    def stats(self) -> Dict[str, Any]:
        return {"scheduler": self.scheduler.stats(), "pool": self.pool.stats()}


class BackgroundServer:
    """Run an asyncio serving front-end on a daemon thread (tests, demos).

    ::

        background = BackgroundServer(session)
        background.start()          # returns once the port is bound
        ... http requests against background.url ...
        background.stop()

    By default builds a :class:`ServingServer` from ``session``; pass
    ``server_factory`` (a zero-arg callable returning any object with async
    ``start``/``stop`` and a ``url``, e.g. a
    :class:`~repro.serving.fleet.http.FleetServer`) to host a different
    front-end on the same thread/loop machinery.
    """

    def __init__(self, session: Optional[SparseSession] = None,
                 server_factory: Optional[Callable[..., Any]] = None,
                 **server_kwargs: Any) -> None:
        if (session is None) == (server_factory is None):
            raise ValueError("pass exactly one of session or server_factory")
        self._session = session
        self._server_factory = server_factory
        self._server_kwargs = server_kwargs
        self.server: Optional[Any] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        if self.server is None:
            raise RuntimeError("server not started")
        return self.server.url

    def start(self, timeout: float = 60.0) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._main, name="repro-serving", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("serving thread did not come up")
        if self._error is not None:
            raise RuntimeError(f"serving thread failed to start: {self._error}")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is None or self.server is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            if self._server_factory is not None:
                self.server = self._server_factory(**self._server_kwargs)
            else:
                assert self._session is not None  # enforced in __init__
                self.server = ServingServer(self._session, **self._server_kwargs)
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface construction errors to start()
            self._error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()
