"""Stdlib-only JSON/HTTP serving: one HTTP layer, two backends.

:class:`HTTPFrontEnd` is the one HTTP/1.1 implementation, on ``asyncio``
streams (no third-party web framework, matching the repo's
no-new-dependencies rule).  It frames and routes requests, maps errors to
status codes and owns the start/stop/url lifecycle for four endpoints:

* ``POST /generate`` — a :class:`~repro.serving.requests.GenerationRequest`
  payload; streams tokens back as newline-delimited JSON chunks
  (``Transfer-Encoding: chunked``), ending with the full result.
  ``"stream": false`` in the payload returns one final JSON object instead.
* ``POST /experiment`` — a full :class:`~repro.pipeline.spec.ExperimentSpec`
  payload, run off the event loop so decoding keeps going.
* ``GET /stats`` — the backend's queue, batch and throughput figures.
* ``GET /metrics`` — the backend's :class:`~repro.obs.metrics.MetricsRegistry`
  in Prometheus text format; ``?format=json`` returns the snapshot instead.

Malformed input is a 400 (413 when oversized), never a 500: a bad
``Content-Length``, a request cut short by the client's FIN, a body that is
not UTF-8 JSON.  :class:`ServingServer` backs the layer with the in-process
continuous-batching scheduler plus a :class:`SessionPool` for experiments;
:class:`~repro.serving.fleet.http.FleetServer` backs it with a fleet.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.parse
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import MetricsRegistry, TraceSink
from repro.pipeline.session import SparseSession
from repro.pipeline.spec import SpecError
from repro.serving.pool import SessionPool
from repro.serving.requests import GenerationRequest, GenerationResult, RequestError, run_experiment_payload
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerConfig, TokenStream
from repro.utils.logging import get_logger

logger = get_logger("serving.server")

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024

_ENDPOINTS = ("/generate", "/experiment", "/stats", "/metrics")


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
                413: "Payload Too Large", 500: "Internal Server Error"}


async def _read_request(reader: asyncio.StreamReader) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: (method, path, query, body)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > _MAX_HEADER_BYTES:
            raise _HTTPError(413, "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError as exc:
            raise _HTTPError(400, f"malformed request line: {lines[0]!r}") from exc
        headers = {name.strip().lower(): value.strip()
                   for name, _, value in (line.partition(":") for line in lines[1:] if line)}
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise _HTTPError(400, "invalid Content-Length")
        if length > _MAX_BODY_BYTES:
            raise _HTTPError(413, "body too large")
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:  # the client's FIN came first
        raise _HTTPError(400, "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise _HTTPError(413, "headers too large") from exc
    path, _, query_string = path.partition("?")
    return method, path, dict(urllib.parse.parse_qsl(query_string)), body


def _json_body(body: bytes) -> Any:
    """Decode a UTF-8 JSON request body (empty means ``{}``)."""
    try:
        return json.loads(body.decode() or "{}")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise _HTTPError(400, f"request body is not valid JSON: {exc}") from exc


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


class HTTPFrontEnd(ABC):
    """The HTTP layer every serving front end shares.

    A subclass supplies only its backend: the registry that ``/metrics``
    renders, ``stats()`` and the request hooks below.  ``_stream`` queues
    and validates a request eagerly, then returns an async iterator of its
    tokens with ``request_id`` and (once iteration ends) ``finish_reason``.
    Subclasses extend :meth:`start` / :meth:`stop` to bring their backend
    up before the port binds and down after the listener closes.
    """

    def __init__(self, host: str, port: int, registry: MetricsRegistry) -> None:
        self.host = host
        self.port = port
        self.registry = registry
        self._server: Optional[asyncio.Server] = None

    @abstractmethod
    def stats(self) -> Dict[str, Any]: ...

    @abstractmethod
    async def _submit(self, request: GenerationRequest) -> GenerationResult: ...

    @abstractmethod
    def _stream(self, request: GenerationRequest) -> Any: ...

    @abstractmethod
    def _cancel(self, request_id: str) -> None: ...

    @abstractmethod
    async def _experiment(self, payload: Any) -> Dict[str, Any]: ...

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("%s serving on %s", type(self).__name__, self.url)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, query, body = await _read_request(reader)
                if (method, path) == ("POST", "/generate"):
                    await self._handle_generate(writer, body)
                elif (method, path) == ("POST", "/experiment"):
                    _json_response(writer, 200, await self._experiment(_json_body(body)))
                elif (method, path) == ("GET", "/stats"):
                    _json_response(writer, 200, self.stats())
                elif (method, path) == ("GET", "/metrics"):
                    self._handle_metrics(writer, query)
                elif path in _ENDPOINTS:
                    raise _HTTPError(405, f"{method} not allowed on {path}")
                else:
                    raise _HTTPError(404, f"unknown path {path!r}; use {', '.join(_ENDPOINTS)}")
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

    async def _handle_generate(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        payload = _json_body(body)
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        stream = bool(payload.pop("stream", True))
        request = GenerationRequest.from_dict(payload)
        if not stream:
            result = await self._submit(request)
            _json_response(writer, 200, result.to_dict())
            return
        # Queue (and validate) the request *before* committing to the chunked
        # head, so queue-full / over-budget errors still go out as a clean 400.
        token_stream = self._stream(request)
        writer.write(_response_head(200, "application/x-ndjson", "Transfer-Encoding: chunked\r\n"))
        tokens: list = []
        final: Dict[str, Any] = {"done": True, "request_id": token_stream.request_id, "tokens": tokens}
        try:
            async for token in token_stream:
                _write_chunk(writer, (json.dumps({"index": len(tokens), "token": token}) + "\n").encode())
                tokens.append(token)
                await writer.drain()
            final.update(prompt=list(request.prompt), finish_reason=token_stream.finish_reason)
        except RuntimeError as exc:
            # Backend-side decode failure after the chunked response started:
            # surface it as a terminal error line, never as a second HTTP head.
            final["error"] = str(exc)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # The client dropped the stream (or the server is shutting the
            # handler down): stop decoding for it and free its slot now.
            self._cancel(token_stream.request_id)
            raise
        _write_chunk(writer, (json.dumps(final, sort_keys=True) + "\n").encode())
        _write_chunk(writer, b"")  # terminal chunk

    def _handle_metrics(self, writer: asyncio.StreamWriter, query: Dict[str, str]) -> None:
        fmt = query.get("format", "prometheus")
        if fmt == "json":
            _json_response(writer, 200, self.registry.snapshot())
            return
        if fmt != "prometheus":
            raise _HTTPError(400, f"unknown metrics format {fmt!r}; use 'prometheus' or 'json'")
        body = self.registry.render_prometheus().encode()
        content_type = "text/plain; version=0.0.4; charset=utf-8"
        writer.write(_response_head(200, content_type, f"Content-Length: {len(body)}\r\n"))
        writer.write(body)


class ServingServer(HTTPFrontEnd):
    """The single-process front end: scheduler + session pool."""

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
        super().__init__(host, port, self.scheduler.registry)

    async def start(self) -> None:
        await self.scheduler.start()
        await super().start()

    async def stop(self) -> None:
        await super().stop()
        await self.scheduler.stop()

    def stats(self) -> Dict[str, Any]:
        return {"scheduler": self.scheduler.stats(), "pool": self.pool.stats()}

    async def _submit(self, request: GenerationRequest) -> GenerationResult:
        return await self.scheduler.submit(request)

    def _stream(self, request: GenerationRequest) -> TokenStream:
        return self.scheduler.stream(request)

    def _cancel(self, request_id: str) -> None:
        self.scheduler.cancel(request_id)

    async def _experiment(self, payload: Any) -> Dict[str, Any]:
        def run() -> Dict[str, Any]:
            with self.pool.borrow() as worker:
                return run_experiment_payload(payload, session=worker)

        return await asyncio.get_running_loop().run_in_executor(None, run)


class BackgroundServer:
    """Run an asyncio serving front-end on a daemon thread (tests, demos).

    ::

        background = BackgroundServer(session)
        background.start()          # returns once the port is bound
        ... http requests against background.url ...
        background.stop()

    By default builds a :class:`ServingServer` from ``session``; pass
    ``server_factory`` (e.g. :class:`~repro.serving.fleet.http.FleetServer`,
    called with the remaining keyword arguments) to host another front end.
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
        asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(timeout)
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
            try:
                if self._server_factory is not None:
                    self.server = self._server_factory(**self._server_kwargs)
                else:
                    assert self._session is not None  # enforced in __init__
                    self.server = ServingServer(self._session, **self._server_kwargs)
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # surface construction errors to start()
                self._error = exc
                return
            finally:
                self._ready.set()
            loop.run_forever()
        finally:
            loop.close()
