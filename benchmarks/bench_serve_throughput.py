"""Serving throughput: batched engine, LRU hot-row cache, sharded tables.

Freezes pointwise models into :class:`repro.serve.ServeSession` plans and
replays a stationary Zipf(1.1) stream (the §4 skew,
:meth:`repro.traffic.TrafficSpec.stationary`) through each session's batcher
with :func:`repro.traffic.replay` — phase 0 warms, phase 1 is measured —
reporting requests/sec in four configurations:

* **memcom** — monolithic vs hash-sharded, cached vs uncached.  Finding:
  MEmCom's own compose (``U[i mod m] ⊙ V[i] + W[i]``) is so gather-cheap —
  small tables are the paper's whole point, and Zipf traffic keeps the hot
  rows CPU-cache-resident — that an LRU row cache is roughly throughput-
  neutral on it, and sharding costs only the per-shard routing overhead.
* **tt_rec** — the compute-heavy end of the technique space: every lookup
  contracts tensor-train cores (per-id matmuls).  Memoizing composed rows
  absorbs the Zipf head's contractions and multiplies throughput.

Reported per configuration in ``benchmark.extra_info``: requests/sec, p99
request latency, cache hit rate, and the cached/uncached + sharded/monolithic
ratios.  The acceptance gates assert the cached tt_rec engine serves ≥2×
the uncached requests/sec (it lands far above, ≈5–9× on a typical CPU) and
that the memcom cache stays within noise of neutral (≥0.7×).

Run as a script for the CI smoke gate::

    python benchmarks/bench_serve_throughput.py --smoke

which shrinks the sweep and asserts cached-Zipf ≥ uncached throughput for
the compute-heavy compose.  ``--artifact`` additionally drives the sweep's
tt_rec engine through the on-disk deployment contract — export the model
as a :mod:`repro.artifact` container, reload it via
:class:`~repro.serve.ServeSession`, measure it on the same traffic, and
assert the loaded plan's predictions are bit-identical to the in-memory
engine's (the export → load → serve → compare loop, end to end).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from itertools import islice

import numpy as np

from repro.artifact import load_artifact, save_artifact
from repro.models.builder import build_pointwise_ranker, shard_model
from repro.serve.session import ServeConfig, ServeSession
from repro.traffic import TrafficModel, TrafficSpec, replay

EMBEDDING_DIM = 128
INPUT_LENGTH = 64
NUM_ITEMS = 16
BATCH = 128
ZIPF_ALPHA = 1.1  # the acceptance-gate traffic skew
CACHE_ROWS = 32_768
N_SHARDS = 4
TT_RANK = 16
HASH_FRACTION = 16
CACHED_SPEEDUP_FLOOR = 2.0  # tt_rec gate
MEMCOM_CACHE_FLOOR = 0.7  # memcom cache must stay ~neutral


def _vocab(scale: float) -> int:
    return int(200_000 * scale)


def _build(technique: str, vocab: int, seed: int = 0):
    hyper = {
        "memcom": {"num_hash_embeddings": max(2, vocab // HASH_FRACTION)},
        "tt_rec": {"tt_rank": TT_RANK},
    }[technique]
    return build_pointwise_ranker(
        technique,
        vocab,
        NUM_ITEMS,
        input_length=INPUT_LENGTH,
        embedding_dim=EMBEDDING_DIM,
        rng=seed,
        **hyper,
    )


def _traffic(vocab: int, num_batches: int) -> TrafficModel:
    return TrafficModel(
        TrafficSpec.stationary(
            vocab, INPUT_LENGTH, num_batches * BATCH, BATCH, alpha=ZIPF_ALPHA
        )
    )


def _measure(technique: str, label: str, session, traffic: TrafficModel) -> dict:
    """Replay ``traffic`` through ``session``; one bench row from its warm phase."""
    warm = replay(session, traffic).phases[1]
    return {
        "technique": technique,
        "config": label,
        "requests_per_sec": warm.rps,
        "p99_ms": warm.p99_ms,
        "cache_hit_rate": warm.hit_rate,
    }


def _sweep(scale: float = 1.0, num_batches: int = 96) -> list[dict]:
    """Measure every engine configuration; returns one dict per row."""
    vocab = _vocab(scale)
    cache_rows = int(CACHE_ROWS * min(1.0, scale) if scale < 1.0 else CACHE_ROWS)
    traffic = _traffic(vocab, num_batches)
    base = ServeConfig(max_batch=BATCH)
    cached = ServeConfig(max_batch=BATCH, cache_rows=cache_rows)

    rows = []
    for technique in ("memcom", "tt_rec"):
        configs = [
            ("uncached", ServeSession.from_model(_build(technique, vocab), base)),
            ("cached", ServeSession.from_model(_build(technique, vocab), cached)),
        ]
        if technique == "memcom":
            configs.append(
                (
                    f"sharded x{N_SHARDS}",
                    ServeSession.from_model(
                        shard_model(_build(technique, vocab), N_SHARDS), base
                    ),
                )
            )
        rows += [
            _measure(technique, label, session, traffic) for label, session in configs
        ]
    return rows


def _artifact_sweep(scale: float, num_batches: int) -> list[dict]:
    """Export → load → serve → compare, on the sweep's tt_rec model.

    Returns bench rows for the artifact-served engine (uncached + cached)
    and asserts the loaded plan is bit-identical to the in-memory one —
    the round trip a real deployment takes before any device sees traffic.
    """
    vocab = _vocab(scale)
    cache_rows = int(CACHE_ROWS * min(1.0, scale) if scale < 1.0 else CACHE_ROWS)
    model = _build("tt_rec", vocab)
    reference = ServeSession.from_model(model)
    traffic = _traffic(vocab, num_batches)
    eval_ids = np.concatenate([s.requests for s in islice(traffic.stream(), 2)])
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tt_rec-artifact")
        save_artifact(model, path)
        # One disk read + hash verification, shared by both sessions.
        artifact = load_artifact(path)
        loaded = ServeSession.load(artifact, ServeConfig(max_batch=BATCH))
        assert np.array_equal(loaded.predict(eval_ids), reference.predict(eval_ids)), (
            "artifact-loaded serving plan diverged from the in-memory engine"
        )
        cached = ServeSession.load(
            artifact, ServeConfig(max_batch=BATCH, cache_rows=cache_rows)
        )
        for label, session in (("artifact", loaded), ("artifact+cache", cached)):
            row = _measure("tt_rec", label, session, traffic)
            row["artifact_bytes"] = artifact.total_bytes()
            rows.append(row)
    return rows


def _render(rows: list[dict]) -> str:
    lines = [
        f"{'technique':>9} {'engine':>14} {'req/s':>10} {'p99 ms':>8} {'hit':>6}"
    ]
    for r in rows:
        hit = f"{100 * r['cache_hit_rate']:.1f}%" if r["cache_hit_rate"] is not None else "—"
        lines.append(
            f"{r['technique']:>9} {r['config']:>14} {r['requests_per_sec']:>10,.0f} "
            f"{r['p99_ms']:>8.2f} {hit:>6}"
        )
    return "\n".join(lines)


def _rps(rows: list[dict], technique: str, config: str) -> float:
    return next(
        r["requests_per_sec"]
        for r in rows
        if r["technique"] == technique and r["config"] == config
    )


def _assert_gates(rows: list[dict], cached_floor: float) -> None:
    tt_ratio = _rps(rows, "tt_rec", "cached") / _rps(rows, "tt_rec", "uncached")
    assert tt_ratio >= cached_floor, (
        f"cached tt_rec engine only {tt_ratio:.2f}× the uncached requests/sec "
        f"under Zipf({ZIPF_ALPHA}); expected ≥{cached_floor}×"
    )
    mc_ratio = _rps(rows, "memcom", "cached") / _rps(rows, "memcom", "uncached")
    assert mc_ratio >= MEMCOM_CACHE_FLOOR, (
        f"memcom cache regressed throughput to {mc_ratio:.2f}× "
        f"(floor {MEMCOM_CACHE_FLOOR}×)"
    )


def test_serve_throughput(benchmark):
    from conftest import run_once

    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    rows = run_once(benchmark, lambda: _sweep(scale))

    print()
    print(_render(rows))
    for r in rows:
        key = f"{r['technique']}_{r['config'].replace(' ', '')}"
        benchmark.extra_info[f"{key}_rps"] = round(r["requests_per_sec"])
        benchmark.extra_info[f"{key}_p99_ms"] = round(r["p99_ms"], 3)
        if r["cache_hit_rate"] is not None:
            benchmark.extra_info[f"{key}_hit_rate"] = round(r["cache_hit_rate"], 3)
    benchmark.extra_info["ttrec_cached_speedup"] = round(
        _rps(rows, "tt_rec", "cached") / _rps(rows, "tt_rec", "uncached"), 2
    )
    benchmark.extra_info["memcom_sharded_ratio"] = round(
        _rps(rows, "memcom", f"sharded x{N_SHARDS}") / _rps(rows, "memcom", "uncached"),
        2,
    )
    _assert_gates(rows, CACHED_SPEEDUP_FLOOR)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep; assert cached-Zipf ≥ uncached throughput (CI gate)",
    )
    parser.add_argument(
        "--artifact",
        action="store_true",
        help="also run the export → load → serve → compare round trip and "
        "bench the artifact-served engine (bit-identity asserted)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        scale, num_batches, floor = 0.25, 32, 1.0
    else:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
        num_batches, floor = 96, CACHED_SPEEDUP_FLOOR
    rows = _sweep(scale, num_batches)
    if args.artifact:
        artifact_rows = _artifact_sweep(scale, num_batches)
        rows += artifact_rows
    print(_render(rows))
    # Smoke floor: the cached engine must at least match uncached on the
    # compute-heavy compose (full-scale floor is 2×; smoke is noise-safe).
    _assert_gates(rows, cached_floor=floor)
    if args.artifact:
        print(
            f"\nartifact round trip passed: loaded plan bit-identical, "
            f"{artifact_rows[0]['artifact_bytes']:,} bytes on disk"
        )
    print(
        "\ngates passed: cached-Zipf ≥ "
        f"{floor}× uncached (tt_rec), memcom cache ~neutral"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
