"""The benchmark's workloads and the metrics each one reports.

Serving workloads export a freshly built MEmCom ranker, open it with
``ServeSession.load`` and drive it with :mod:`perfbench.loops`; the
training workload runs ``PipelineSpec`` → ``TrainSession.fit`` →
``evaluate`` → ``export``.  Every input — traffic, model weights, training
data — is a pure function of the seed and is generated before any timed
phase.  Why each workload exists is written down in ``perfbench/README.md``.

Every run reports every end-to-end metric; a traced run reports every
per-layer metric.  Layers a workload does not reach on its own path are
measured in the traced run by a small fixed probe: the training layers on
a serving workload, where they are controls, and the multi-process
runtime (``workers=2``) on every workload.
"""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.artifact import load_artifact, save_artifact
from repro.metrics.ndcg import ndcg_single_relevant
from repro.models.builder import build_pointwise_ranker
from repro.nn import optim as nn_optim
from repro.nn import sparse_grad as nn_sparse_grad
from repro.nn import tensor as nn_tensor
from repro.pipeline import PipelineSpec, TrainSession
from repro.serve.session import ServeConfig, ServeSession
from repro.traffic.bench import BENCH_SPEC
from repro.traffic.model import TrafficModel, TrafficSpec
from repro.train import trainer as train_loop
from repro.train.trainer import TrainConfig

from perfbench.loops import Failures, open_loop, quiesced, serve_step, window_median
from perfbench.tracer import Tracer

__all__ = ["SERVING", "WORKLOADS", "run_workload"]

_perf = time.perf_counter

EMBEDDING_DIM = 32
NUM_ITEMS = 50
#: the hot-row cache and batcher every serving workload runs with
SERVE_CONFIG = ServeConfig(
    cache_rows=4096, cache_min_count=2, cache_ttl_batches=32, max_batch=64
)
#: set-ups per run, about half before the measurement and half after; the
#: reported setup_s is their median
SETUP_REPEATS = 11
TRAIN_SETUP_REPEATS = 7
#: stream steps served during set-up, before any timed phase
WARM_STEPS = 32
#: throughput is a median over this many consecutive windows of a run
#: (about 0.25 s each at 25 s); serving p50 and p99 are over passes of the
#: stream instead (see perfbench.loops.pass_percentiles)
WINDOWS = 100
#: sampled stream steps checked against the cache-less reference
ORACLE_STEPS = 40
#: stream steps the multi-process runtime probe serves in a traced run, and
#: its shard-worker count
PROBE_STEPS = 48
RUNTIME_PROBE_WORKERS = 2
#: optimizer steps per window of train's p50 and p99: a window's p99 is
#: its third-largest step, and a 25-s run has ten windows
STEP_WINDOW = 256
#: held-out nDCG@10 below this means training is broken, not slow
NDCG_FLOOR = 0.1
#: optimizer steps per epoch of the training probe on serving workloads
TRAIN_PROBE_STEPS = 30
#: the traced train run serves its int8 export: requests per step, offered rate
TRAIN_SERVE_STEP = 16
TRAIN_SERVE_RPS = 2_000


@dataclass(frozen=True)
class ServingWorkload:
    name: str
    traffic: TrafficSpec
    bits: int
    #: open-loop offered load, requests per second
    rate_rps: float


#: BENCH_SPEC traffic (drifting Zipf 1.1 head, locality 0.7, 4x bursts),
#: 600 steps instead of 72.
DRIFT_TRAFFIC = replace(BENCH_SPEC, steps_per_phase=200)
#: flat Zipf, no locality, no drift, over a 1M-id vocabulary.
TAIL_TRAFFIC = TrafficSpec(
    vocab=1_000_000,
    input_length=64,
    alpha=0.5,
    num_phases=1,
    steps_per_phase=300,
    drift_fraction=0.0,
    sessions_per_step=8.0,
    locality=0.0,
)

SERVING = {
    w.name: w
    for w in (
        ServingWorkload("drift-hot", DRIFT_TRAFFIC, bits=32, rate_rps=20_000),
        ServingWorkload("tail-miss", TAIL_TRAFFIC, bits=4, rate_rps=4_000),
    )
}
WORKLOADS = (*SERVING, "train")


def _median(values) -> float:
    return float(statistics.median(values))


def _ms_median(seconds: np.ndarray) -> float:
    return 1e3 * float(np.median(seconds)) if seconds.size else 0.0


def _us_median(seconds: np.ndarray) -> float:
    return 1e6 * float(np.median(seconds)) if seconds.size else 0.0


def _rows_equal(a, b) -> bool:
    """Bit equality of two steps' results, skipping failed requests."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in pairs)


def _checksum(steps: list, results: list) -> str:
    sha = hashlib.sha256()
    for requests, rows in zip(steps, results):
        sha.update(np.ascontiguousarray(requests).tobytes())
        if isinstance(rows, np.ndarray):
            sha.update(np.ascontiguousarray(rows).tobytes())
            continue
        for row in rows:
            sha.update(b"failed" if row is None else np.ascontiguousarray(row).tobytes())
    return sha.hexdigest()


class Run:
    """What one workload run reports: metrics, counts, oracle verdicts."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, tuple[float, str]] = {}
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failures = Failures()
        self.notes: dict[str, str] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


# -- serving -------------------------------------------------------------------


def traffic_steps(spec: TrafficSpec, seed: int) -> list[np.ndarray]:
    """The whole request stream, generated before anything is timed."""
    return [
        s.requests for s in TrafficModel(spec.with_seed(seed)).stream()
        if s.requests.shape[0]
    ]


def build_model(wl: ServingWorkload, seed: int):
    vocab = wl.traffic.vocab
    return build_pointwise_ranker(
        "memcom", vocab, NUM_ITEMS,
        input_length=wl.traffic.input_length,
        embedding_dim=EMBEDDING_DIM,
        rng=seed,
        num_hash_embeddings=max(2, vocab // 16),
    )


def serving_setup(wl: ServingWorkload, seed: int, steps: list, path: str):
    """One set-up: export → ``ServeSession.load`` → warm-up prefix.  Returns ``(session, model, artifact, seconds,
    save_seconds)``."""
    gc.collect()
    start = _perf()
    model = build_model(wl, seed)
    t_save = _perf()
    artifact = save_artifact(model, path, bits=wl.bits)
    save_s = _perf() - t_save
    session = ServeSession.load(path, SERVE_CONFIG)
    for requests in steps[:WARM_STEPS]:
        serve_step(session, requests, Failures())
    return session, model, artifact, _perf() - start, save_s


def more_setups(wl: ServingWorkload, seed: int, steps: list, workdir: str, n: int):
    """``n`` further set-ups, each closed at once; their set-up and save
    times."""
    setup_times, save_times = [], []
    for _ in range(n):
        path = os.path.join(tempfile.mkdtemp(dir=workdir), f"{wl.name}.artifact")
        session, *_, setup_s, save_s = serving_setup(wl, seed, steps, path)
        session.close()
        setup_times.append(setup_s)
        save_times.append(save_s)
    return setup_times, save_times


def serving_oracle(run: Run, session, model, steps, served) -> None:
    """Bit-equality against a cache-less reference on the same artifact,
    nDCG@10 of the served ranking against the FP32 model's top item, and
    the stream-plus-predictions checksum."""
    ref = ServeSession.load(session.artifact.path, cache_rows=None, max_batch=64)
    fp32 = ServeSession.from_model(model, max_batch=64)
    stride = max(1, len(steps) // ORACLE_STEPS)
    sampled = range(0, len(steps), stride)
    quiet = Failures()
    ref_ok = all(
        _rows_equal(served.first_pass[i], serve_step(ref, steps[i], quiet))
        for i in sampled
    )
    scores, labels = [], []
    for i in sampled:
        top = serve_step(fp32, steps[i], quiet)
        for row, ref_row in zip(served.first_pass[i], top):
            if row is not None and ref_row is not None:
                scores.append(row)
                labels.append(int(np.argmax(ref_row)))
    run.checks["matches cache-less reference"] = ref_ok and quiet.count == 0
    ndcg = ndcg_single_relevant(np.stack(scores), np.asarray(labels), k=10) if scores else 0.0
    run.put("ndcg", ndcg, "ratio")
    run.notes["checksum"] = _checksum(steps, served.first_pass)


def run_serving(wl: ServingWorkload, seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    run = Run(wl.name)
    steps = traffic_steps(wl.traffic, seed)
    tick = float(np.mean([len(s) for s in steps])) / wl.rate_rps
    # Set-ups before and after the measurement sample the machine at more
    # than one point of the run; the middle one is measured.
    setup_times, save_times = more_setups(wl, seed, steps, workdir, SETUP_REPEATS // 2)
    session, model, artifact, setup_s, save_s = serving_setup(
        wl, seed, steps, os.path.join(workdir, f"{wl.name}.artifact")
    )
    setup_times.append(setup_s)
    save_times.append(save_s)
    try:
        if trace:
            serving_layers(run, session, steps, tick, seconds, save_times, workdir)
            train_layers(run, train_spec(seed, 2, TRAIN_PROBE_STEPS), workdir)
            return run
        served = open_loop(session, steps, tick, seconds, WINDOWS, run.failures)
        run.attempted = served.attempted
        engine = session.engine
        resident = engine.table_resident_bytes() + (
            engine.cache.store_nbytes() if engine.cache is not None else 0
        )
        run.put("throughput", served.service_rps, "1/s")
        run.put("p50_ms", served.p50_ms, "ms")
        run.put("p99_ms", served.p99_ms, "ms")
        run.put("ok_rate", 1.0 - run.failures.count / run.attempted, "ratio")
        run.put("resident_mb", resident / 1e6, "MB")
        run.put("artifact_kb", artifact.total_bytes() / 1e3, "kB")
        serving_oracle(run, session, model, steps, served)
    finally:
        session.close()
    after, _ = more_setups(wl, seed, steps, workdir, SETUP_REPEATS - len(setup_times))
    run.put("setup_s", _median(setup_times + after), "s")
    return run


# -- serving layers (traced run) ------------------------------------------------


def _wrap_engine(tracer: Tracer, engine) -> None:
    tracer.wrap(engine, "predict", "serve.engine.predict")
    tracer.wrap(engine, "validate_ids", "serve.engine.validate_ids")
    if engine.cache is not None:
        for fn in ("lookup", "insert", "rows"):
            tracer.wrap(engine.cache, fn, f"serve.cache.{fn}")


_CACHE_SPANS = ("serve.cache.lookup", "serve.cache.insert", "serve.cache.rows")


def _engine_metrics(run: Run, tracer: Tracer, cache, before: np.ndarray) -> None:
    run.put("serve.engine.predict_ms", _ms_median(tracer.durations("serve.engine.predict")), "ms")
    run.put(
        "serve.engine.self_ms",
        _ms_median(tracer.durations("serve.engine.predict", _CACHE_SPANS)),
        "ms",
    )
    run.put("serve.engine.validate_us", _us_median(tracer.durations("serve.engine.validate_ids")), "us")
    for fn in ("lookup", "insert", "rows"):
        run.put(f"serve.cache.{fn}_us", _us_median(tracer.durations(f"serve.cache.{fn}")), "us")
    hits, misses, evictions, rejected = _cache_counters(cache) - before
    run.put("serve.cache.hit_rate", hits / max(1, hits + misses), "ratio")
    run.put("serve.cache.evictions", evictions, "count")
    run.put("serve.cache.rejected", rejected, "count")


def _cache_counters(cache) -> np.ndarray:
    return np.array([cache.hits, cache.misses, cache.evictions, cache.rejected])


def serving_layers(
    run: Run, session, steps, tick, seconds, save_times, workdir: str,
    overhead: bool = True,
) -> None:
    """Per-layer metrics of one serving session over its own stream.

    With ``overhead`` an untraced half runs first and
    ``tracing.overhead_pct`` compares its service rate with the traced
    half's.
    """
    path = session.artifact.path
    load_times = []
    for _ in range(5):
        start = _perf()
        load_artifact(path)
        load_times.append(_perf() - start)
    run.put("artifact.save_s", _median(save_times), "s")
    run.put("artifact.load_s", _median(load_times), "s")
    run.put("artifact.bytes", session.artifact.total_bytes(), "B")

    half = seconds / 2
    plain = open_loop(session, steps, tick, half, WINDOWS, run.failures) if overhead else None
    tracer = Tracer()
    tracer.wrap(session.batcher, "submit", "serve.batcher.submit")
    tracer.wrap(session.batcher, "flush", "serve.batcher.flush")
    _wrap_engine(tracer, session.engine)
    cache = session.engine.cache
    before = _cache_counters(cache)
    try:
        traced = open_loop(
            session, steps, tick, half, WINDOWS, run.failures,
            step_span=lambda: tracer.span("step"),
        )
    finally:
        tracer.restore()
    run.attempted += traced.attempted
    if plain is not None:
        run.attempted += plain.attempted
        run.checks["traced run serves the untraced rows"] = all(
            _rows_equal(a, b) for a, b in zip(plain.first_pass, traced.first_pass)
        )
        run.put(
            "tracing.overhead_pct",
            100.0 * (plain.service_rps / traced.service_rps - 1.0), "%",
        )
    run.put("traffic.late_p99_ms", float(np.percentile(traced.late_ms, 99)), "ms")
    run.put("traffic.offered_rps", traced.offered_rps, "1/s")
    run.put("serve.batcher.submit_us", _us_median(tracer.durations("serve.batcher.submit")), "us")
    run.put("serve.batcher.flush_ms", _ms_median(tracer.durations("serve.batcher.flush")), "ms")
    # One flush per step: a request queues from its step's due time to the
    # start of that flush.
    queued = tracer.starts_of("serve.batcher.flush") - traced.due_s
    run.put(
        "serve.batcher.queue_ms_p99",
        1e3 * float(np.percentile(np.repeat(queued, traced.served), 99)), "ms",
    )
    run.put(
        "serve.batcher.batch_rows",
        tracer.count("serve.batcher.submit") / max(1, tracer.count("serve.engine.predict")),
        "count",
    )
    tracer.dump(os.path.join(os.path.dirname(workdir), f"trace-{run.workload}.jsonl"))

    _engine_metrics(run, tracer, cache, before)

    # The multi-process runtime, on the same artifact and the first steps of
    # the same stream.
    probe_steps = steps[:PROBE_STEPS]
    probe = Tracer()
    with ServeSession.load(path, replace(SERVE_CONFIG, workers=RUNTIME_PROBE_WORKERS)) as multi:
        probe.wrap(multi.runtime, "predict", "serve.runtime.predict")
        try:
            for requests in probe_steps:
                serve_step(multi, requests, run.failures)
        finally:
            probe.restore()
        run.attempted += sum(len(s) for s in probe_steps)
        qos = multi.stats()
    run.put("serve.runtime.predict_ms", _ms_median(probe.durations("serve.runtime.predict")), "ms")
    for counter in ("retries", "timeouts", "respawns"):
        run.put(f"serve.runtime.{counter}", qos[counter], "count")

    sample = np.concatenate(probe_steps).ravel()[:4096]
    per_row = []
    for _ in range(20):
        start = _perf()
        session.engine.compose_rows(sample)
        per_row.append((_perf() - start) / sample.size)
    run.put("serve.engine.compose_us_per_row", 1e6 * _median(per_row), "us")


# -- training --------------------------------------------------------------------


def train_spec(seed: int, epochs: int, steps_per_epoch: int | None) -> PipelineSpec:
    return PipelineSpec(
        dataset="movielens",
        architecture="pointwise",
        technique="memcom",
        hyper={"num_hash_embeddings": 512},
        scale=0.1,
        train=TrainConfig(
            epochs=epochs, batch_size=128, optimizer="adam",
            max_batches_per_epoch=steps_per_epoch, seed=seed,
        ),
        seed=seed,
        monitor=False,
    )


def train_length(seconds: float) -> tuple[int, int | None]:
    """``(epochs, steps_per_epoch)`` filling about ``seconds`` of ``fit``:
    whole 511-step epochs (about 5 s each at 9-10 ms/step) once there is
    room for one, else a capped single epoch."""
    if seconds >= 5:
        return max(1, round(seconds / 5)), None
    return 1, max(1, int(100 * seconds))


def train_setup(spec: PipelineSpec):
    """One set-up: data generation + model build.  Returns ``(session,
    seconds, generate_seconds)``."""
    gc.collect()
    start = _perf()
    data = spec.load_data()
    generate_s = _perf() - start
    session = TrainSession(spec, data=data)
    return session, _perf() - start, generate_s


def more_train_setups(spec: PipelineSpec, n: int) -> tuple[list, list]:
    """``n`` further set-ups, timed only: their set-up and generate times."""
    timed = [train_setup(spec)[1:] for _ in range(n)]
    return [t for t, _ in timed], [g for _, g in timed]


def timed_fit(session: TrainSession, failures: Failures, stop_after_epoch=None):
    """``fit`` (up to ``stop_after_epoch`` total epochs) with one timestamp
    per optimizer step, taken at the forward call.  Returns the seconds of
    each step run, the last one ending when ``fit`` returned."""
    stamps: list[float] = []
    model = session.model
    forward = model.forward
    wrapped = vars(model).get("forward")  # a tracer's wrapper, if any

    def stamped(*args, **kwargs):
        stamps.append(_perf())
        return forward(*args, **kwargs)

    model.forward = stamped
    try:
        with quiesced():
            session.fit(stop_after_epoch=stop_after_epoch)
            stamps.append(_perf())
    except Exception as exc:  # noqa: BLE001 - a failed fit is counted, not fatal
        failures.record(exc, n=0)
        stamps.append(_perf())
    finally:
        if wrapped is None:
            del model.forward
        else:
            model.forward = wrapped
    return np.diff(stamps)


def _planned_steps(spec: PipelineSpec, data) -> int:
    per_epoch = len(data.x_train) // spec.train.batch_size
    cap = spec.train.max_batches_per_epoch
    return spec.train.epochs * (min(per_epoch, cap) if cap else per_epoch)


def _fit_throughput(spec: PipelineSpec, step_s: np.ndarray) -> float:
    counts = np.full(step_s.size, float(spec.train.batch_size))
    return window_median(counts, step_s, WINDOWS)


def _step_percentiles(step_s: np.ndarray) -> tuple[float, float]:
    """Median over windows of :data:`STEP_WINDOW` consecutive steps of each
    window's p50 and p99, in ms.

    A host pause lengthens the step it lands in; how many land in a run
    varies from run to run, and a p99 over all steps followed that count.
    The median window holds the typical number of pauses.
    """
    windows = np.array_split(step_s, max(1, step_s.size // STEP_WINDOW))
    p50, p99 = np.median([np.percentile(w, (50.0, 99.0)) for w in windows], axis=0)
    return 1e3 * float(p50), 1e3 * float(p99)


def train_oracle(run: Run, session: TrainSession, artifact) -> None:
    """The exported int8 artifact reloads and serves bit-equal to
    ``ServeSession.from_model(model, bits=8)``."""
    served = ServeSession.load(artifact.path, max_batch=64)
    ref = ServeSession.from_model(session.model, bits=8, max_batch=64)
    x = session.data.x_eval
    quiet = Failures()
    same = all(
        _rows_equal(serve_step(served, x[i : i + 64], quiet), serve_step(ref, x[i : i + 64], quiet))
        for i in range(0, len(x), 64)
    )
    run.checks["int8 export serves like from_model(bits=8)"] = same and quiet.count == 0
    run.put("resident_mb", served.engine.table_resident_bytes() / 1e6, "MB")


def run_train(seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    run = Run("train")
    spec = train_spec(seed, *train_length(seconds))
    if trace:
        trained, path, save_times = train_layers(run, spec, workdir, overhead=True)
        # The exported model served through the same cached front door,
        # one step per TRAIN_SERVE_STEP held-out requests.
        x = trained.data.x_eval
        steps = [x[i : i + TRAIN_SERVE_STEP] for i in range(0, len(x), TRAIN_SERVE_STEP)]
        with ServeSession.load(path, SERVE_CONFIG) as session:
            serving_layers(
                run, session, steps, TRAIN_SERVE_STEP / TRAIN_SERVE_RPS, seconds,
                save_times, workdir, overhead=False,
            )
        return run
    setup_times, _ = more_train_setups(spec, TRAIN_SETUP_REPEATS // 2)
    session, setup_s, _ = train_setup(spec)
    setup_times.append(setup_s)
    planned = _planned_steps(spec, session.data)
    step_s = timed_fit(session, run.failures)
    run.attempted = planned
    if step_s.size < planned:
        run.failures.record(None, n=planned - step_s.size)
    ndcg = session.evaluate()["ndcg"]
    artifact = session.export(os.path.join(workdir, "train-int8.artifact"), bits=8)
    run.put("throughput", _fit_throughput(spec, step_s), "1/s")
    p50, p99 = _step_percentiles(step_s)
    run.put("p50_ms", p50, "ms")
    run.put("p99_ms", p99, "ms")
    run.put("ok_rate", 1.0 - run.failures.count / run.attempted, "ratio")
    run.put("ndcg", ndcg, "ratio")
    run.put("artifact_kb", artifact.total_bytes() / 1e3, "kB")
    train_oracle(run, session, artifact)
    run.checks[f"held-out nDCG@10 above {NDCG_FLOOR}"] = ndcg > NDCG_FLOOR
    after, _ = more_train_setups(spec, TRAIN_SETUP_REPEATS - len(setup_times))
    run.put("setup_s", _median(setup_times + after), "s")
    return run


# -- training layers (traced run) -------------------------------------------------


def _wrap_training(tracer: Tracer, model) -> None:
    tracer.wrap(model, "forward", "nn.model.forward")
    tracer.wrap(model.embedding, "forward", "nn.embedding.forward")
    tracer.wrap(train_loop, "softmax_cross_entropy", "nn.loss")
    tracer.wrap(nn_tensor.Tensor, "backward", "nn.backward")
    tracer.wrap(nn_sparse_grad.SparseRowGrad, "coalesce", "nn.sparse_grad.coalesce")
    tracer.wrap(nn_optim.Optimizer, "step", "nn.optim.step")


def train_layers(
    run: Run, spec: PipelineSpec, workdir: str, overhead: bool = False
):
    """Per-step time of each training layer, from a traced ``fit``, then
    evaluation and int8 export.

    With ``overhead`` an untraced ``fit`` of the same spec runs alongside,
    the two taking turns epoch by epoch so both see the machine in the same
    state, and ``tracing.overhead_pct`` compares their throughput.  Returns
    the traced session, the exported artifact's path and the
    ``save_artifact`` times.
    """
    _, gen_times = more_train_setups(spec, TRAIN_SETUP_REPEATS - 1)
    session, _, generate_s = train_setup(spec)
    run.put("data.generate_s", _median(gen_times + [generate_s]), "s")
    plain_session = TrainSession(spec, data=session.data) if overhead else None
    tracer = Tracer()
    plain_s, traced_s = [], []
    for epoch in range(1, spec.train.epochs + 1):
        if plain_session is not None:
            plain_s.append(timed_fit(plain_session, run.failures, epoch))
        _wrap_training(tracer, session.model)
        try:
            traced_s.append(timed_fit(session, run.failures, epoch))
        finally:
            tracer.restore()
    traced_s = np.concatenate(traced_s)
    run.attempted += traced_s.size
    if plain_session is not None:
        plain_s = np.concatenate(plain_s)
        run.attempted += plain_s.size
        run.put(
            "tracing.overhead_pct",
            100.0 * (_fit_throughput(spec, plain_s) / _fit_throughput(spec, traced_s) - 1.0),
            "%",
        )
        weights = session.model.state_dict()
        plain_weights = plain_session.model.state_dict()
        run.checks["traced fit trains the untraced weights"] = (
            weights.keys() == plain_weights.keys()
            and all(np.array_equal(weights[k], plain_weights[k]) for k in weights)
        )
    steps = max(1, traced_s.size)

    def per_step(name: str, children: tuple[str, ...] = ()) -> float:
        return 1e3 * float(tracer.durations(name, children).sum()) / steps

    run.put("nn.embedding.forward_ms", per_step("nn.embedding.forward"), "ms")
    run.put("nn.tower.forward_ms", per_step("nn.model.forward", ("nn.embedding.forward",)), "ms")
    run.put("nn.loss_ms", per_step("nn.loss"), "ms")
    run.put("nn.backward_ms", per_step("nn.backward", ("nn.sparse_grad.coalesce",)), "ms")
    run.put("nn.sparse_grad.coalesce_ms", per_step("nn.sparse_grad.coalesce"), "ms")
    run.put("nn.optim.step_ms", per_step("nn.optim.step", ("nn.sparse_grad.coalesce",)), "ms")
    run.put("nn.optim.rows_per_step", session.state.optimizer.rows_applied / steps, "count")

    start = _perf()
    session.evaluate()
    run.put("metrics.evaluate_s", _perf() - start, "s")
    path = os.path.join(workdir, "train-int8.artifact")
    start = _perf()
    session.export(path, bits=8)
    run.put("pipeline.export_s", _perf() - start, "s")
    save_times = []
    for r in range(3):
        start = _perf()
        save_artifact(session.model, os.path.join(workdir, f"train-save-{r}"), bits=8)
        save_times.append(_perf() - start)
    return session, path, save_times


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    if name == "train":
        return run_train(seed, seconds, trace, workdir)
    return run_serving(SERVING[name], seed, seconds, trace, workdir)
