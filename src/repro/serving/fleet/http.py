"""HTTP front end over a :class:`~repro.serving.fleet.manager.FleetManager`.

The HTTP layer is :class:`~repro.serving.server.HTTPFrontEnd`, shared with
the single-process :class:`~repro.serving.server.ServingServer`; this module
only backs it with a fleet.  Every blocking fleet call, each token pull of a
stream included, runs in a worker thread so the event loop never stalls.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Dict, Optional, Union

from repro.obs import MetricsRegistry
from repro.serving.fleet.config import FleetConfig
from repro.serving.fleet.manager import FleetManager, FleetStream
from repro.serving.requests import GenerationRequest, GenerationResult
from repro.serving.server import HTTPFrontEnd


class _AsyncFleetStream:
    """A blocking :class:`FleetStream`, iterated asynchronously: one thread hop per token."""

    def __init__(self, stream: FleetStream) -> None:
        self.stream = stream

    def __getattr__(self, name: str) -> Any:  # request_id, finish_reason
        return getattr(self.stream, name)

    async def __aiter__(self) -> AsyncIterator[int]:
        while (token := await asyncio.to_thread(self.stream.next_item)) is not None:
            yield token


class FleetServer(HTTPFrontEnd):
    """The fleet front end: manager + HTTP endpoints.

    ``/generate`` lands on a decode worker (least-loaded or prefix-affinity),
    ``/experiment`` on the experiment worker class, and ``/stats`` /
    ``/metrics`` aggregate per-worker (``worker``-labelled) figures.  Accepts
    either a :class:`FleetConfig` (the manager is built and owned by the
    server, started on :meth:`start` and stopped on :meth:`stop`) or an
    already-running :class:`FleetManager` (borrowed; its lifecycle stays with
    the caller).
    """

    def __init__(
        self,
        fleet: Union[FleetConfig, FleetManager, None] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._owns_manager = not isinstance(fleet, FleetManager)
        self.manager = fleet if isinstance(fleet, FleetManager) else FleetManager(fleet, registry=registry)
        super().__init__(host, port, self.manager.registry)

    async def start(self) -> None:
        if self._owns_manager and not self.manager.started:
            await asyncio.to_thread(self.manager.start)
        await super().start()

    async def stop(self) -> None:
        await super().stop()
        if self._owns_manager:
            await asyncio.to_thread(self.manager.stop)

    def stats(self) -> Dict[str, Any]:
        return self.manager.stats()

    async def _submit(self, request: GenerationRequest) -> GenerationResult:
        return await asyncio.to_thread(self.manager.generate, request)

    def _stream(self, request: GenerationRequest) -> _AsyncFleetStream:
        return _AsyncFleetStream(self.manager.submit(request))

    def _cancel(self, request_id: str) -> None:
        self.manager.cancel(request_id)

    async def _experiment(self, payload: Any) -> Dict[str, Any]:
        return await asyncio.to_thread(self.manager.experiment, payload)


__all__ = ["FleetServer"]
