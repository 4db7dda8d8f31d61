"""The benchmark's own tests: its clock, its failure counting, its oracle,
and that an injected slowdown in one layer fails it."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from perfbench import workloads
from perfbench.loops import Failures, open_loop, pass_percentiles, serve_step
from perfbench.tracer import Tracer
from repro.artifact import save_artifact
from repro.serve.session import ServeConfig, ServeSession

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class FakeEngine:
    """Scores every request by its first id; stalls or raises on cue."""

    input_length = 4
    vocab_size = 100

    def __init__(self, stall_on: int | None = None, stall_s: float = 0.0,
                 raise_on: int | None = None) -> None:
        self.calls = 0
        self.stall_on = stall_on
        self.stall_s = stall_s
        self.raise_on = raise_on

    def predict(self, ids: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls == self.stall_on:
            time.sleep(self.stall_s)
        if self.calls == self.raise_on:
            raise ValueError("injected serving error")
        return np.asarray(ids, dtype=np.float32)[:, :1].copy()


def _fake_session(engine: FakeEngine) -> ServeSession:
    return ServeSession(engine, ServeConfig(max_batch=64))


def _fake_steps(n: int, per_step: int = 2) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [rng.integers(0, 100, (per_step, 4)) for _ in range(n)]


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    tick, stall = 0.004, 0.06
    session = _fake_session(FakeEngine(stall_on=10, stall_s=stall))
    result = open_loop(session, _fake_steps(40), tick, 40 * tick, 4, Failures())
    # Step 9 (the 10th predict) stalls; the steps due during the stall
    # start late and their requests carry the wait, although each one's
    # own submit → resolve time is tiny.
    per_step = result.latencies_ms.reshape(40, 2)[:, 0]
    assert per_step[9] > 0.5e3 * stall
    assert result.late_ms[10] > 0.5e3 * stall
    assert (per_step[10:] > 1e3 * 2 * tick).sum() >= 3
    assert result.failed == 0


def test_latency_percentiles_drop_a_one_pass_stall_and_keep_a_recurring_one():
    n_steps = 100
    clean = [np.full(2, 1.0) for _ in range(n_steps)]
    stalled = [s.copy() for s in clean]
    for i in range(5, 10):
        stalled[i] += 50.0  # a host pause in the middle pass only
    assert pass_percentiles(clean + stalled + clean, n_steps) == (1.0, 1.0)
    bursty = [s.copy() for s in clean]
    for i in range(90, 95):
        bursty[i] += 50.0  # the stream's own burst, queued in every pass
    failed = [s.copy() for s in bursty]
    failed[0][1] = np.nan  # a failed request is left out, not counted as 0
    p50, p99 = pass_percentiles(bursty + failed + bursty, n_steps)
    assert p50 == 1.0 and p99 == 51.0


def test_a_serving_error_counts_as_failed_and_the_run_continues():
    steps = _fake_steps(20)
    steps[3] = np.zeros((2, 5), dtype=np.int64)  # wrong shape: submit raises
    session = _fake_session(FakeEngine(raise_on=7))
    failures = Failures()
    result = open_loop(session, steps, 1e-4, 0.0, 5, failures)
    assert result.attempted == 40
    assert result.failed == failures.count == 4  # 2 rejected + 2 unresolved
    assert failures.by_type == {"ValueError": 2, "unresolved": 2}
    assert 1.0 - result.failed / result.attempted < 1.0
    assert len(result.first_pass) == 20


def _drift_session(workdir, workers=0):
    wl = workloads.SERVING["drift-hot"]
    model = workloads.build_model(wl, 3)
    path = os.path.join(workdir, f"w{workers}.artifact")
    save_artifact(model, path, bits=32)
    return ServeSession.load(path, replace(workloads.SERVE_CONFIG, workers=workers))


@pytest.fixture(scope="module")
def short_drift():
    spec = replace(workloads.DRIFT_TRAFFIC, steps_per_phase=12)
    return workloads.traffic_steps(spec, 3)


def test_checksum_repeats_across_runs_and_matches_across_workers(tmp_path, short_drift):
    sums = []
    for workers in (0, 0, 2):
        with _drift_session(tmp_path, workers) as session:
            result = open_loop(session, short_drift, 1e-4, 0.0, 5, Failures())
        assert result.failed == 0
        sums.append(workloads._checksum(short_drift, result.first_pass))
    assert sums[0] == sums[1] == sums[2]


def test_injected_layer_delay_fails_the_bound(tmp_path, short_drift):
    """A delay around ``LRUCache.lookup`` moves that layer's traced time and
    drops the service rate by more than the benchmark's bound."""
    bound = {m["name"]: m["bound"] for m in _benchmark_json()["end_to_end"]}["throughput"]
    with _drift_session(tmp_path) as session:
        cache = session.engine.cache

        def measure():
            plain = open_loop(session, short_drift, 1e-4, 0.0, 5, Failures())
            tracer = Tracer()
            tracer.wrap(cache, "lookup", "serve.cache.lookup")
            try:
                open_loop(session, short_drift, 1e-4, 0.0, 5, Failures())
            finally:
                tracer.restore()
            return plain.service_rps, np.median(tracer.durations("serve.cache.lookup"))

        rps, lookup_s = measure()
        lookup = cache.lookup

        def slow_lookup(ids):
            time.sleep(0.001)
            return lookup(ids)

        cache.lookup = slow_lookup
        try:
            slow_rps, slow_lookup_s = measure()
        finally:
            del cache.lookup
    assert slow_lookup_s - lookup_s > 0.0009
    assert slow_rps < (1.0 - bound) * rps


def test_oracle_compares_against_a_cacheless_reference(tmp_path, short_drift):
    with _drift_session(tmp_path) as session:
        ref = ServeSession.load(session.artifact.path, cache_rows=None, max_batch=64)
        served = open_loop(session, short_drift, 1e-4, 0.0, 5, Failures()).first_pass
        for i in (0, len(short_drift) // 2, len(short_drift) - 1):
            expected = serve_step(ref, short_drift[i], Failures())
            assert workloads._rows_equal(served[i], expected)
            tampered = expected.copy()
            tampered[0, 0] += 1.0
            assert not workloads._rows_equal(served[i], tampered)


def test_tracer_restores_what_it_wrapped():
    class Thing:
        def work(self, x):
            return x + 1

    thing = Thing()
    tracer = Tracer()
    tracer.wrap(thing, "work", "outer")
    tracer.wrap(Thing, "work", "inner")
    assert thing.work(1) == 2
    assert tracer.count("outer") == 1
    tracer.restore()
    assert "work" not in vars(thing) and thing.work(1) == 2
    assert tracer.count("outer") == 1 and tracer.count("inner") == 0


def test_run_end_to_end_prints_every_metric(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "drift-hot", "--seed", "5", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = _benchmark_json()
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] != 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drift-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
