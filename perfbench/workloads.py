"""The three workloads: how each is set up, driven, measured and checked.

* ``decode-b1`` — a ``ServingServer`` in a child process (``serve.py``),
  driven closed-loop over a real socket by one streaming client.
* ``burst-batch`` — an open loop against an in-process
  ``ContinuousBatchingScheduler``: one thread, no sockets, requests timed
  from when they were due.
* ``sim-phi3med`` — paper-scale ``throughput_for_method`` estimates.

Every run returns ``(correct, attempted, failed, metrics, detail)``.  An
untraced run (``trace=False``) reports the end-to-end metrics; a traced run
spends half its time untraced and half with every layer wrapped
(``tracing.py``), and reports the per-layer metrics plus the ratio of the
two halves.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import resource
import select
import signal
import subprocess
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import httpstream, tracing, traffic
from perfbench.measure import median, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SIM_GOLDEN = Path(__file__).resolve().parent / "sim_golden.json"
HOST = "127.0.0.1"
clock = time.perf_counter

#: An untraced run sets up this many times and measures an equal share of
#: its seconds on each set-up, so its samples span several processes (or
#: sessions) and several stretches of the host's own load.
REPEATS = 3
#: A request that has not finished after this long has failed; a failed
#: request enters the latency sample at this value, missing any limit.
REQUEST_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0
#: Simulated tokens per ``sim-phi3med`` estimate, and per set-up estimate.
SIM_TOKENS, SIM_SETUP_TOKENS = 64, 4

#: End-to-end metrics, with units, in the order ``BENCHMARK.json`` lists them.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_tail_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("itl_tail_ms", "ms"),
    ("tokens_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclasses.dataclass
class Outcome:
    """One request as the client saw it."""

    request: traffic.Request
    tokens: List[int]
    ttft: Optional[float]
    itl: List[float]
    ok: bool
    error: str = ""
    #: When the request was sent (closed loop) or due (open loop).
    start: float = 0.0


@dataclasses.dataclass
class Phase:
    """The requests of one measured phase and its wall time."""

    outcomes: List[Outcome]
    wall_s: float
    lateness: List[float] = dataclasses.field(default_factory=list)

    @property
    def tokens(self) -> int:
        return sum(len(o.tokens) for o in self.outcomes if o.ok)


@dataclasses.dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    detail: Dict[str, Any]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency(outcomes: Sequence[Outcome]) -> Dict[str, Dict[str, float]]:
    ttft = [o.ttft if o.ok and o.ttft is not None else REQUEST_TIMEOUT_S for o in outcomes]
    itl = [gap for o in outcomes for gap in o.itl] or [REQUEST_TIMEOUT_S]
    return {"ttft": summarize(ttft), "itl": summarize(itl)}


def _e2e_metrics(phases: Sequence[Phase], setups: Sequence[float],
                 rss_mb: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics over the pooled requests of a run's repeats."""
    latency = _latency([o for p in phases for o in p.outcomes])
    tokens_per_s = sum(p.tokens for p in phases) / sum(p.wall_s for p in phases)
    metrics = {
        "setup_s": median(setups),
        "ttft_p50_ms": 1e3 * latency["ttft"]["p50"],
        "ttft_tail_ms": 1e3 * latency["ttft"]["tail"],
        "itl_p50_ms": 1e3 * latency["itl"]["p50"],
        "itl_tail_ms": 1e3 * latency["itl"]["tail"],
        "tokens_per_s": tokens_per_s,
        "peak_rss_mb": rss_mb,
    }
    repeats = [dict(_latency(p.outcomes), tokens_per_s=p.tokens / p.wall_s) for p in phases]
    detail = dict(latency, setups_s=list(setups), repeats=repeats)
    return metrics, detail


def _result(phases: Sequence[Phase], errors: List[str], metrics: Dict[str, float],
            detail: Dict[str, Any]) -> RunResult:
    outcomes = [o for p in phases for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes)
    errors = [f"{o.request.rid}: {o.error}" for o in outcomes if not o.ok] + errors
    detail.update(requests={"sent": len(outcomes), "succeeded": len(outcomes) - failed,
                            "failed": failed}, errors=errors[:20])
    return RunResult(not errors and bool(outcomes), len(outcomes), failed, metrics, detail)


# ----------------------------------------------------------------- references
def verify(workload: str, outcomes: Sequence[Outcome]) -> List[str]:
    """Compare every response with ``SparseSession.generate`` on the same prompt.

    Prompts of equal length share one batched greedy ``generate`` call; a
    request's tokens must equal the reference's first ``max_new_tokens``.
    """
    from perfbench.models import build_session

    session, _ = build_session(workload)
    by_length: Dict[int, List[Outcome]] = defaultdict(list)
    for outcome in outcomes:
        if outcome.ok:
            by_length[len(outcome.request.prompt)].append(outcome)
    errors = []
    for length, group in sorted(by_length.items()):
        for start in range(0, len(group), 64):
            chunk = group[start : start + 64]
            n_new = max(o.request.max_new_tokens for o in chunk)
            refs = session.generate(np.array([o.request.prompt for o in chunk]), n_new, temperature=0.0)
            refs = np.atleast_2d(refs)
            for outcome, row in zip(chunk, refs):
                expected = [int(t) for t in row[length : length + outcome.request.max_new_tokens]]
                if outcome.tokens != expected:
                    errors.append(f"{outcome.request.rid}: tokens differ from SparseSession.generate")
    return errors


# --------------------------------------------------------------- HTTP serving
class ServerChild:
    """A ``serve.py`` child process; stopped with SIGTERM, killed on error."""

    def __init__(self, workload: str, spans: bool) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        tag = uuid.uuid4().hex[:12]
        self.record_path = OUT_DIR / f"child-{tag}.json"
        self.spans_path = OUT_DIR / f"spans-{tag}.json" if spans else None
        cmd = [sys.executable, str(ROOT / "perfbench" / "serve.py"), "--workload", workload,
               "--record", str(self.record_path)]
        if self.spans_path is not None:
            cmd += ["--spans", str(self.spans_path)]
        self.started = clock()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""  # type: ignore[union-attr]
        if not line:
            self.kill()
            raise RuntimeError(f"{workload} server did not start (exit code {self.proc.returncode})")
        self.port = int(json.loads(line)["port"])

    def stop(self) -> Dict[str, Any]:
        """Stop the server; returns its record (and span log when traced)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with code {self.proc.returncode}")
        record = json.loads(self.record_path.read_text())
        self.record_path.unlink()
        if self.spans_path is not None:
            record["log"] = json.loads(self.spans_path.read_text())
            self.spans_path.unlink()
        return record

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


async def _http_request(port: int, request: traffic.Request) -> Outcome:
    payload = {"prompt": list(request.prompt), "max_new_tokens": request.max_new_tokens,
               "temperature": 0.0, "request_id": request.rid}
    sent = clock()
    try:
        start, status, events = await asyncio.wait_for(
            httpstream.generate(HOST, port, payload, clock), REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, OSError, EOFError, ValueError) as exc:
        return Outcome(request, [], None, [], False, f"{type(exc).__name__}: {exc}", sent)
    timing = httpstream.stream_timings(start, events)
    final = timing["final"] or {}
    ok = (status == 200 and final.get("finish_reason") == "length"
          and final.get("tokens") == timing["tokens"]
          and len(timing["tokens"]) == request.max_new_tokens)
    error = "" if ok else f"HTTP {status}: {final.get('error') or final.get('finish_reason')}"
    return Outcome(request, timing["tokens"], timing["ttft"], timing["itl"], ok, error, start)


async def closed_loop(port: int, requests: Iterator[traffic.Request], seconds: float) -> Phase:
    """One streaming client that sends its next request when the last one ends."""
    outcomes: List[Outcome] = []
    start = clock()
    while clock() - start < seconds:
        outcomes.append(await _http_request(port, next(requests)))
    return Phase(outcomes, clock() - start)


async def _first_token(port: int) -> float:
    payload = {"prompt": [1, 2, 3, 4], "max_new_tokens": 2, "temperature": 0.0,
               "request_id": "warmup"}
    _, status, events = await httpstream.generate(HOST, port, payload, clock)
    if status != 200 or not events or "token" not in events[0][1]:
        raise RuntimeError(f"warm-up request failed with HTTP {status}")
    return events[0][0]


def boot(workload: str, spans: bool) -> Tuple[ServerChild, float]:
    """Launch a server child; set-up time runs to its first served token."""
    child = ServerChild(workload, spans)
    try:
        first = asyncio.run(_first_token(child.port))
    except BaseException:
        child.kill()
        raise
    return child, first - child.started


def run_http(workload: str, requests: Iterator[traffic.Request], seconds: float,
             trace: bool) -> RunResult:
    live: List[ServerChild] = []
    try:
        if not trace:
            setups, phases, rss = [], [], []
            for _ in range(REPEATS):
                child, setup_s = boot(workload, spans=False)
                live.append(child)
                setups.append(setup_s)
                phases.append(asyncio.run(closed_loop(child.port, requests, seconds / REPEATS)))
                rss.append(live.pop().stop()["peak_rss_mb"])
            metrics, detail = _e2e_metrics(phases, setups, median(rss))
        else:
            child, _ = boot(workload, spans=False)
            live.append(child)
            base = asyncio.run(closed_loop(child.port, requests, seconds / 2))
            live.pop().stop()
            child, _ = boot(workload, spans=True)
            live.append(child)
            phase = asyncio.run(closed_loop(child.port, requests, seconds / 2))
            log = live.pop().stop()["log"]
            tracing.check_fired(log["fired"], "serving")
            overhead = (base.tokens / base.wall_s) / (phase.tokens / phase.wall_s)
            client_ttft = {o.request.rid: o.ttft for o in phase.outcomes if o.ok}
            metrics = tracing.layer_metrics(log, overhead_ratio=overhead, client_ttft=client_ttft)
            detail = {"untraced_tokens_per_s": base.tokens / base.wall_s,
                      "traced_tokens_per_s": phase.tokens / phase.wall_s}
            phases = [base, phase]
    finally:
        for child in live:
            child.kill()
    errors = verify(workload, [o for p in phases for o in p.outcomes])
    return _result(phases, errors, metrics, detail)


# ---------------------------------------------------------------- burst-batch
async def _consume(stream: Any, request: traffic.Request, due: float) -> Outcome:
    tokens: List[int] = []
    times: List[float] = []
    try:
        async for token in stream:
            tokens.append(token)
            times.append(clock())
    except RuntimeError as exc:
        return Outcome(request, tokens, None, [], False, str(exc), due)
    ok = stream.finish_reason == "length" and len(tokens) == request.max_new_tokens
    return Outcome(request, tokens, times[0] - due if times else None,
                   [b - a for a, b in zip(times, times[1:])], ok,
                   "" if ok else f"finish_reason={stream.finish_reason}", due)


async def open_loop(scheduler: Any, requests: Sequence[traffic.Request]) -> Phase:
    """Submit each request at its due time; latency counts from the due time.

    The phase starts when the first request is due.
    """
    from repro.serving.requests import GenerationRequest

    tasks = []
    lateness: List[float] = []
    start = clock()
    for request in requests:
        due = start + request.due_s - requests[0].due_s
        if due > clock():
            await asyncio.sleep(due - clock())
        lateness.append(clock() - due)
        stream = scheduler.stream(GenerationRequest(
            prompt=request.prompt, max_new_tokens=request.max_new_tokens, temperature=0.0,
            request_id=request.rid, timeout_s=REQUEST_TIMEOUT_S))
        tasks.append(asyncio.ensure_future(_consume(stream, request, due)))
    outcomes = list(await asyncio.gather(*tasks))
    return Phase(outcomes, clock() - start, lateness)


async def _burst_session(session: Any, config: Any, requests: Sequence[traffic.Request]
                         ) -> Tuple[float, Optional[Phase], Dict[str, Any]]:
    """Start a scheduler, serve a warm-up request, then (optionally) the open loop."""
    from repro.serving import ContinuousBatchingScheduler
    from repro.serving.requests import GenerationRequest

    scheduler = ContinuousBatchingScheduler(session, config)
    await scheduler.start()
    try:
        first: Optional[float] = None
        async for _ in scheduler.stream(GenerationRequest(prompt=(1, 2, 3, 4), max_new_tokens=2,
                                                          request_id="warmup")):
            first = clock() if first is None else first
        assert first is not None
        phase = await open_loop(scheduler, requests) if requests else None
        stats = scheduler.stats()
    finally:
        await scheduler.stop()
    return first, phase, stats


def run_burst(seed: int, seconds: float, trace: bool) -> RunResult:
    from perfbench.models import build_session

    requests = list(itertools.takewhile(lambda r: r.due_s < seconds, traffic.burst_requests(seed)))
    if not trace:
        setups, phases, busy = [], [], []
        for k in range(REPEATS):
            share = [r for r in requests if k * seconds <= REPEATS * r.due_s < (k + 1) * seconds]
            started = clock()
            session, config = build_session("burst-batch")
            first, phase, stats = asyncio.run(_burst_session(session, config, share))
            assert phase is not None
            setups.append(first - started)
            phases.append(phase)
            busy.append(stats["busy_seconds"] / phase.wall_s)
        metrics, detail = _e2e_metrics(phases, setups, _peak_rss_mb())
        detail.update(gen_lateness=summarize([t for p in phases for t in p.lateness]),
                      scheduler_busy_frac=busy)
    else:
        session, config = build_session("burst-batch")
        first_half = [r for r in requests if r.due_s < seconds / 2]
        _, base, base_stats = asyncio.run(_burst_session(session, config, first_half))
        rec = tracing.install(tracing.Recorder())
        try:
            _, phase, stats = asyncio.run(_burst_session(session, config, requests[len(first_half):]))
        finally:
            rec.uninstall()
        rec.finish()
        tracing.check_fired(rec.fired, "serving")
        busy_per_token = [s["busy_seconds"] / s["tokens_generated"] for s in (base_stats, stats)]
        metrics = tracing.layer_metrics(rec.log(), overhead_ratio=busy_per_token[1] / busy_per_token[0],
                                        lateness=phase.lateness)
        detail = {"busy_s_per_token": busy_per_token}
        phases = [base, phase]
    errors = verify("burst-batch", [o for p in phases for o in p.outcomes])
    return _result(phases, errors, metrics, detail)


# ---------------------------------------------------------------- sim-phi3med
def sim_estimate(n_tokens: int, trace_seed: int) -> Dict[str, float]:
    """One paper-scale DIP-CA (density 0.5) estimate on Phi-3-Medium / Apple A18."""
    from repro.engine.throughput import throughput_for_method
    from repro.hwsim.device import get_device
    from repro.nn.model_zoo import get_model_spec
    from repro.sparsity.registry import REGISTRY

    method = REGISTRY.create("dip-ca", target_density=0.5)
    estimate = throughput_for_method(method, get_model_spec("phi3-medium"), get_device("apple-a18"),
                                     n_tokens=n_tokens, trace_seed=trace_seed)
    return estimate.summary()


def _timed(fn: Callable[..., Dict[str, float]], *args: Any) -> Tuple[float, Dict[str, float]]:
    start = clock()
    result = fn(*args)
    return clock() - start, result


def run_sim(seed: int, seconds: float, trace: bool) -> RunResult:
    trace_seed = traffic.sim_trace_seed(seed)
    golden = json.loads(SIM_GOLDEN.read_text())[str(trace_seed)]
    results: List[Dict[str, float]] = []
    if not trace:
        setups = [_timed(sim_estimate, SIM_SETUP_TOKENS, trace_seed)[0] for _ in range(REPEATS)]
        durations: List[float] = []
        start = clock()
        while clock() - start < seconds:
            elapsed, result = _timed(sim_estimate, SIM_TOKENS, trace_seed)
            durations.append(elapsed)
            results.append(result)
        # Each estimate is one request whose single result is also its first:
        # its host time is the TTFT, and host time per simulated token the ITL.
        per_estimate, per_token = summarize(durations), summarize([d / SIM_TOKENS for d in durations])
        metrics = {
            "setup_s": median(setups),
            "ttft_p50_ms": 1e3 * per_estimate["p50"],
            "ttft_tail_ms": 1e3 * per_estimate["tail"],
            "itl_p50_ms": 1e3 * per_token["p50"],
            "itl_tail_ms": 1e3 * per_token["tail"],
            "tokens_per_s": SIM_TOKENS * len(durations) / sum(durations),
            "peak_rss_mb": _peak_rss_mb(),
        }
        detail: Dict[str, Any] = {"setups_s": setups, "sim_host_s": durations}
    else:
        untraced, result = _timed(sim_estimate, SIM_TOKENS, trace_seed)
        results.append(result)
        rec = tracing.install(tracing.Recorder())
        try:
            traced, result = _timed(sim_estimate, SIM_TOKENS, trace_seed)
        finally:
            rec.uninstall()
        results.append(result)
        rec.finish()
        tracing.check_fired(rec.fired, "hwsim")
        metrics = tracing.layer_metrics(rec.log(), overhead_ratio=traced / untraced, sim=result)
        detail = {"sim_host_s": [untraced, traced]}
    detail["simulated"] = results[0]
    errors = [f"estimate {i}: simulated statistics {r} differ from the pinned {golden}"
              for i, r in enumerate(results) if r != golden]
    return RunResult(not errors, len(results), len(errors), metrics, dict(detail, errors=errors))


def write_sim_golden() -> None:
    """Re-pin the simulated statistics of every trace seed in ``sim_golden.json``."""
    golden = {str(s): sim_estimate(SIM_TOKENS, s) for s in range(traffic.SIM_TRACE_SEEDS)}
    SIM_GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------------ registry
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    if name == "decode-b1":
        return run_http(name, traffic.decode_requests(seed), seconds, trace)
    if name == "burst-batch":
        return run_burst(seed, seconds, trace)
    if name == "sim-phi3med":
        return run_sim(seed, seconds, trace)
    raise KeyError(f"unknown workload {name!r}")


WORKLOADS = ("decode-b1", "burst-batch", "sim-phi3med")
