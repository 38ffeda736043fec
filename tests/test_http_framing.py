"""Hostile request framing at the HTTP boundary, on both front ends.

``ServingServer`` and ``FleetServer`` share one HTTP layer
(:class:`repro.serving.server.HTTPFrontEnd`), so every malformed input must
get the same clean 400 from both — never a 500 — and leave the server able
to serve the next, valid request.  Requests go over a raw socket that
half-closes after sending, like a client that has nothing more to say.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serving import BackgroundServer, SchedulerConfig
from repro.serving.fleet import FleetConfig, FleetServer, WorkerSpec, build_worker_session

PROMPT = (5, 9, 2, 7)


def _post(path: bytes, body: bytes, length: bytes = b"") -> bytes:
    length = length or b"%d" % len(body)
    return b"POST " + path + b" HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + b"\r\n\r\n" + body


#: id -> (raw request, expected error message or its prefix).
MALFORMED = {
    "content-length-abc": (_post(b"/generate", b"", b"abc"), "invalid Content-Length"),
    "content-length-negative": (_post(b"/generate", b"", b"-5"), "invalid Content-Length"),
    "truncated-body": (_post(b"/generate", b'{"prompt": [5, 9', b"64"), "truncated request"),
    "non-utf8-generate": (_post(b"/generate", b'{"prompt": "\xff\xfe"}'), "request body is not valid JSON: "),
    "non-utf8-experiment": (_post(b"/experiment", b"\xff{}"), "request body is not valid JSON: "),
}


@pytest.fixture(scope="module")
def session():
    session = build_worker_session(WorkerSpec())
    session.calibrate()
    return session


@pytest.fixture(scope="module", params=["serving", "fleet"])
def front_end(request, session):
    if request.param == "serving":
        background = BackgroundServer(session, config=SchedulerConfig(max_batch_size=2, max_seq_len=64),
                                      pool_size=1)
    else:
        config = FleetConfig(decode_workers=1, experiment_workers=0, transport="inproc")
        background = BackgroundServer(server_factory=FleetServer, fleet=config, registry=MetricsRegistry())
    with background:
        yield background.server


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_request_is_a_400(front_end, session, raw_http, case):
    request, message = MALFORMED[case]
    status, payload = raw_http(front_end.host, front_end.port, request)
    assert status == 400
    assert payload["error"].startswith(message)

    body = json.dumps({"prompt": list(PROMPT), "max_new_tokens": 3, "stream": False}).encode()
    status, payload = raw_http(front_end.host, front_end.port, _post(b"/generate", body))
    sequence = session.generate(np.asarray(PROMPT, dtype=np.int64), 3, temperature=0.0)
    assert status == 200 and payload["tokens"] == [int(t) for t in sequence[len(PROMPT):]]
