"""A minimal asyncio HTTP client for the server's streaming ``/generate``.

The server answers a streaming request with ``Transfer-Encoding: chunked``
newline-delimited JSON: one ``{"index", "token"}`` line per token, then a
final ``{"done": true, ...}`` line.  :func:`read_response` stamps each parsed
line with the clock at the moment its chunk arrived, which is what the
client-side TTFT and inter-token gaps are computed from
(:func:`stream_timings`).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

Event = Tuple[float, Dict[str, Any]]


async def read_response(
    reader: asyncio.StreamReader, clock: Callable[[], float]
) -> Tuple[int, List[Event]]:
    """Read one HTTP/1.1 response; return ``(status, [(arrival_time, json_line), ...])``."""
    status_line = await reader.readline()
    parts = status_line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ValueError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = (await reader.readline()).decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    events: List[Event] = []
    if headers.get("transfer-encoding", "").lower() == "chunked":
        pending = b""
        while True:
            size = int((await reader.readline()).split(b";")[0].strip() or b"0", 16)
            if size == 0:
                await reader.readline()  # blank line after the terminal chunk
                break
            data = await reader.readexactly(size + 2)
            now = clock()
            pending += data[:-2]
            *lines, pending = pending.split(b"\n")
            events.extend((now, json.loads(line)) for line in lines if line.strip())
        if pending.strip():
            events.append((clock(), json.loads(pending)))
    else:
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else await reader.read()
        now = clock()
        events.extend((now, json.loads(line)) for line in body.split(b"\n") if line.strip())
    return status, events


def stream_timings(start: float, events: List[Event]) -> Dict[str, Any]:
    """TTFT, inter-token gaps, tokens and final record of one streamed response."""
    token_times = [t for t, obj in events if "token" in obj and not obj.get("done")]
    final: Optional[Dict[str, Any]] = next((obj for _, obj in events if obj.get("done")), None)
    return {
        "ttft": token_times[0] - start if token_times else None,
        "itl": [b - a for a, b in zip(token_times, token_times[1:])],
        "tokens": [obj["token"] for _, obj in events if "token" in obj and not obj.get("done")],
        "final": final,
    }


async def generate(
    host: str, port: int, payload: Dict[str, Any], clock: Callable[[], float]
) -> Tuple[float, int, List[Event]]:
    """POST one streaming ``/generate``; returns ``(send_time, status, events)``."""
    body = json.dumps(dict(payload, stream=True)).encode()
    start = clock()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"POST /generate HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        status, events = await read_response(reader, clock)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return start, status, events

