"""The load generator: an open loop at a fixed offered rate.

It drives a session only through ``submit``/``flush``, one stream step at a
time, from this single thread.  Step ``i`` is due at ``t0 + i * tick``
whatever the server did before, so a burst stays a burst and a stall
delays the steps behind it.  A request's latency runs from its step's due
time, not from its submit, to the moment the batcher resolved its row.

Throughput is the service rate: requests per second of time spent inside
``submit``/``flush``, idle gaps between steps excluded.  For this
synchronous, single-caller server that is the rate a back-to-back (closed)
loop would reach, but it is steadier on a shared machine: back-to-back
loops that keep a core saturated swung by up to 2x between runs there,
while the service time of steps sent at a fixed rate held within a few
percent (see README.md).

Throughput is a median over consecutive windows of steps.  The loop
cycles over the stream, so each request is served once per pass; p50 and
p99 are taken over the stream's requests, each at its median latency
over the passes.  A stall of the machine, which reached hundreds of
milliseconds where this was built, then moves one window or one pass and
not the result, while queueing that the stream itself causes (a burst)
recurs in every pass and is counted in full.  A request that raises on
submit, or is still unresolved after its step's flush, counts as failed;
the loop records the error and carries on.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Failures", "LoopResult", "serve_step", "open_loop", "pass_percentiles",
    "quiesced", "window_median",
]

_perf = time.perf_counter


@dataclass
class Failures:
    """Failed operations, by exception type; the first traceback is kept."""

    count: int = 0
    by_type: dict = field(default_factory=dict)
    first: str | None = None

    def record(self, exc: BaseException | None, n: int = 1) -> None:
        self.count += n
        key = "unresolved" if exc is None else type(exc).__name__
        self.by_type[key] = self.by_type.get(key, 0) + n
        if self.first is None and exc is not None:
            self.first = "".join(traceback.format_exception(exc))
            print(f"perfbench: first failure:\n{self.first}", file=sys.stderr)


def serve_step(session, requests, failures: Failures, resolved: list | None = None):
    """Submit every request of one step, flush once; return the results.

    The results come back as one ``(n, C)`` array when every request was
    served, else as a list with ``None`` where a request failed.  When
    ``resolved`` is given, the ``perf_counter`` time at which each
    request's row was ready is appended to it, NaN for a failed request.
    ``Exception`` is caught here because this is the boundary that must
    keep the run going: a typed serving error costs one request (or one
    flush), not the measurement.
    """
    pending = []
    for ids in requests:
        try:
            pending.append(session.submit(ids))
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            failures.record(exc)
            pending.append(None)
    try:
        session.flush()
    except Exception as exc:  # noqa: BLE001 - unresolved requests counted below
        failures.record(exc, n=0)
    results = []
    for req in pending:
        if req is not None and req.result is None:
            failures.record(None)
        if req is None or req.result is None:
            results.append(None)
            if resolved is not None:
                resolved.append(np.nan)
        else:
            results.append(req.result)
            if resolved is not None:
                resolved.append(req.submitted_at + 1e-3 * req.latency_ms)
    if results and all(r is not None for r in results):
        # One array per step instead of one view per request keeps the
        # collector's work, which a retained stream would inflate, small.
        return np.stack(results)
    return results


@contextlib.contextmanager
def quiesced():
    """A timed phase: collect first, then freeze what survives (the
    pre-generated stream, the session) out of the collector's way until
    the phase ends."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def window_median(counts: np.ndarray, seconds: np.ndarray, windows: int) -> float:
    """Median over ``windows`` consecutive windows of ``sum(counts) /
    sum(seconds)``, one entry of each per step."""
    rates = [
        counts[w].sum() / seconds[w].sum()
        for w in np.array_split(np.arange(len(counts)), windows)
        if w.size and seconds[w].sum() > 0
    ]
    return float(np.median(rates)) if rates else 0.0


def pass_percentiles(per_step: list[np.ndarray], n_steps: int) -> tuple[float, float]:
    """p50 and p99 over the stream's requests, each request at its median
    latency over the passes that served it.

    ``per_step`` holds one latency per request for each step served, NaN
    for a failed request; step ``i`` replays stream step ``i % n_steps``.
    A host pause hits one pass of a request and not the others, so the
    median drops it; a burst's queue recurs in every pass and stays.
    """
    medians = []
    for j in range(min(n_steps, len(per_step))):
        passes = np.stack(per_step[j::n_steps])
        served = ~np.isnan(passes).all(axis=0)
        medians.append(np.nanmedian(passes[:, served], axis=0))
    latencies = np.concatenate(medians) if medians else np.empty(0)
    if not latencies.size:
        return 0.0, 0.0
    p50, p99 = np.percentile(latencies, (50.0, 99.0))
    return float(p50), float(p99)


@dataclass
class LoopResult:
    #: median over windows, and percentiles of per-request medians over
    #: passes (see :func:`open_loop`)
    service_rps: float
    p50_ms: float
    p99_ms: float
    attempted: int
    failed: int
    #: per-request latencies, due → row ready (ms), failed ones excluded
    latencies_ms: np.ndarray
    #: per-step start - due (ms): how late the generator ran
    late_ms: np.ndarray
    #: per-step due time (perf_counter seconds) and requests served
    due_s: np.ndarray
    served: np.ndarray
    offered_rps: float
    #: per stream step of the first pass: the step's results (see serve_step)
    first_pass: list


def _sleep_until(due: float) -> None:
    # Sleep most of the gap, then spin: time.sleep overshoots by tens of
    # microseconds, and an overshoot would be charged to the server.
    gap = due - _perf()
    if gap > 0.0005:
        time.sleep(gap - 0.0003)
    while _perf() < due:
        pass


def open_loop(
    session,
    steps: list[np.ndarray],
    tick_s: float,
    duration_s: float,
    windows: int,
    failures: Failures,
    step_span=None,
) -> LoopResult:
    """Step ``i`` (cycling over ``steps``) is due at ``t0 + i * tick_s``.

    Runs for ``duration_s`` of schedule and at least one pass over the
    stream.  The service rate is computed per window of consecutive steps
    and the median over ``windows`` windows is reported; p50 and p99 come
    from :func:`pass_percentiles`.
    ``step_span`` (a context-manager factory) wraps each step when tracing.
    """
    n_steps = len(steps)
    total = max(windows, n_steps, int(round(duration_s / tick_s)))
    lat: list[np.ndarray] = []
    late = np.empty(total)
    busy = np.empty(total)
    counts = np.empty(total)
    first_pass: list = []
    failed0 = failures.count
    with quiesced():
        t0 = _perf() + 0.005
        for i in range(total):
            requests = steps[i % n_steps]
            due = t0 + i * tick_s
            _sleep_until(due)
            start = _perf()
            resolved: list[float] = []
            if step_span is not None:
                with step_span():
                    results = serve_step(session, requests, failures, resolved)
            else:
                results = serve_step(session, requests, failures, resolved)
            busy[i] = _perf() - start
            late[i] = start - due
            counts[i] = len(requests)
            lat.append(np.asarray(resolved) - due)
            if i < n_steps:
                first_pass.append(results)
    p50, p99 = pass_percentiles(lat, n_steps)
    latencies = np.concatenate(lat)
    return LoopResult(
        service_rps=window_median(counts, busy, windows),
        p50_ms=1e3 * p50,
        p99_ms=1e3 * p99,
        attempted=int(counts.sum()),
        failed=failures.count - failed0,
        latencies_ms=1e3 * latencies[~np.isnan(latencies)],
        late_ms=1e3 * late,
        due_s=t0 + tick_s * np.arange(total),
        served=np.array([np.count_nonzero(~np.isnan(x)) for x in lat]),
        offered_rps=float(counts.sum()) / (total * tick_s),
        first_pass=first_pass,
    )
