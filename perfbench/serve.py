"""Server under test: one ``ServingServer`` for a serving workload.

Launched by the benchmark as a child process::

    python3 perfbench/serve.py --workload decode-b1 --record OUT.json [--spans SPANS.json]

It prints ``{"port": N}`` once it listens, serves until SIGTERM, then stops
the server and writes its record (peak RSS) to ``--record`` and, with
``--spans``, the span log of every wrapped layer call.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.envstamp import pin_environment, pin_server_cpu  # noqa: E402

pin_environment()
pin_server_cpu()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from typing import Optional  # noqa: E402


async def serve(workload: str, record_path: str, spans_path: Optional[str]) -> None:
    from perfbench import tracing
    from perfbench.models import build_session
    from repro.serving import ServingServer

    session, config = build_session(workload)
    recorder = tracing.install(tracing.Recorder()) if spans_path else None
    server = ServingServer(session, config=config, pool_size=1)
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(json.dumps({"port": server.port}), flush=True)
    await stop.wait()
    await server.stop()
    if recorder is not None:
        recorder.finish()
        recorder.dump(spans_path)
    with open(record_path, "w") as handle:
        json.dump({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}, handle)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    asyncio.run(serve(args.workload, args.record, args.spans or None))


if __name__ == "__main__":
    main()
