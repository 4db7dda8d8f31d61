"""Quantized serving: memory / throughput / accuracy trade-off.

Serves pointwise models through the :class:`repro.serve.ServeSession`
quantized plan (``bits=8|4``: :mod:`repro.quant` integer-storage tables,
fused gather→dequant, LRU cache of *codes*) under the paper's Zipf(1.1)
request skew — a stationary :class:`repro.traffic.TrafficSpec` replayed by
:func:`repro.traffic.replay`, phase 0 warm-up, phase 1 measured — against
the FP32 engine on the same traffic:

* **memory** — engine table-resident bytes (codes + scales vs FP32
  snapshots).  Gate: int8 ≤ 0.30× FP32 (0.35 in ``--smoke``, which runs at
  a reduced scale where fixed overheads weigh more), and int4 < int8.
* **cache capacity** — at an equal byte budget the cache of codes must
  hold ≥ 3.5× the FP32 cache's rows at int8 (≈3.8× at e=64; ≈7× at int4).
* **accuracy** — max |Δlogit| of quantized vs FP32 predictions on the
  traffic's first steps.  Gates are the documented tolerances of
  DESIGN.md §7 (int8 ≤ 5e−3, int4 ≤ 1e−1 for these untrained-scale
  models); bit-exactness against the *dequantized reference* — the
  stronger, tolerance-free claim — is pinned in
  ``tests/serve/test_quantized_engine.py``, not here.
* **throughput** — requests/sec per configuration, reported for the trade-
  off table; the only gate is a loose sanity floor (quantized serving pays
  a decode multiply per gathered row, so it trades some throughput for
  3–4× memory: it must stay within 4× of FP32, not beat it).
* **artifact size** — each technique's model is exported as a
  :mod:`repro.artifact` container at FP32/int8/int4 and the on-disk bytes
  ride along in the bench JSON, so the *shipped* size trajectory is
  tracked next to throughput.  Gate: the int8 artifact ≤ 0.35× the FP32
  artifact (the deployment-contract counterpart of the resident-bytes
  ceiling), int4 strictly below int8.

Run as a script for the CI smoke gate::

    python benchmarks/bench_quantized_serving.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from itertools import islice

import numpy as np

from repro.artifact import save_artifact
from repro.models.builder import build_pointwise_ranker
from repro.serve.cache import rows_for_budget
from repro.serve.session import ServeConfig, ServeSession
from repro.traffic import TrafficModel, TrafficSpec, replay

EMBEDDING_DIM = 64
INPUT_LENGTH = 32
NUM_ITEMS = 16
BATCH = 128
ZIPF_ALPHA = 1.1
HASH_FRACTION = 16
CACHE_BUDGET_BYTES = 1 << 21  # 2 MiB row-store budget, FP32 and quantized alike
EVAL_STEPS = 2  # first stream steps (≈2 batches) scored by every engine for accuracy

INT8_MEM_CEIL = 0.30  # acceptance: int8 table-resident ≤ 0.30× FP32
INT8_MEM_CEIL_SMOKE = 0.35  # CI smoke runs a smaller model; fixed costs weigh more
CACHE_ROWS_FLOOR = 3.5  # codes cache rows vs FP32 cache rows at equal bytes
INT8_PRED_TOL = 5e-3  # documented |Δlogit| tolerances (DESIGN.md §7)
INT4_PRED_TOL = 1e-1
THROUGHPUT_SANITY_FLOOR = 0.25  # quantized ≥ 0.25× FP32 cached req/s
INT8_ARTIFACT_CEIL = 0.35  # acceptance: int8 artifact ≤ 0.35× FP32 artifact bytes


def _vocab(scale: float) -> int:
    return int(100_000 * scale)


def _build(technique: str, vocab: int, seed: int = 0):
    hyper = {
        "memcom": {"num_hash_embeddings": max(2, vocab // HASH_FRACTION)},
        "full": {},
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


def _artifact_sizes(technique: str, vocab: int) -> dict[str, int]:
    """On-disk container bytes for one model at every storage width."""
    model = _build(technique, vocab)
    sizes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for bits, label in ((32, "fp32"), (8, "int8"), (4, "int4")):
            artifact = save_artifact(
                model, os.path.join(tmp, f"{technique}-{label}"), bits=bits
            )
            sizes[label] = artifact.total_bytes()
    return sizes


def _sweep(scale: float = 1.0, num_batches: int = 64) -> list[dict]:
    """One row per (technique, engine config): throughput, memory, accuracy.

    Each row also carries its technique's ``artifact_bytes`` map (FP32 /
    int8 / int4 container sizes) so downstream JSON keeps size next to
    speed."""
    traffic = TrafficModel(
        TrafficSpec.stationary(
            _vocab(scale), INPUT_LENGTH, num_batches * BATCH, BATCH, alpha=ZIPF_ALPHA
        )
    )
    eval_ids = np.concatenate([s.requests for s in islice(traffic.stream(), EVAL_STEPS)])

    rows = []
    for technique in ("full", "memcom"):
        vocab = _vocab(scale)
        fp32_cache_rows = rows_for_budget(CACHE_BUDGET_BYTES, EMBEDDING_DIM, 32)
        configs = [
            ("fp32", dict()),
            ("fp32+cache", dict(cache_rows=fp32_cache_rows)),
        ]
        for bits in (8, 4):
            q_rows = rows_for_budget(CACHE_BUDGET_BYTES, EMBEDDING_DIM, bits)
            configs += [
                (f"int{bits}", dict(bits=bits)),
                (f"int{bits}+cache", dict(bits=bits, cache_rows=q_rows)),
            ]
        artifact_bytes = _artifact_sizes(technique, vocab)
        fp32_pred = None
        fp32_bytes = None
        for label, kwargs in configs:
            session = ServeSession.from_model(
                _build(technique, vocab), ServeConfig(max_batch=BATCH, **kwargs)
            )
            engine = session.engine
            pred = session.predict(eval_ids).copy()
            if label == "fp32":
                fp32_pred, fp32_bytes = pred, engine.table_resident_bytes()
            warm = replay(session, traffic).phases[1]
            rows.append(
                {
                    "technique": technique,
                    "config": label,
                    "requests_per_sec": warm.rps,
                    "p99_ms": warm.p99_ms,
                    "cache_hit_rate": warm.hit_rate,
                    "cache_rows": engine.cache.capacity if engine.cache else None,
                    "table_bytes": engine.table_resident_bytes(),
                    "mem_ratio": engine.table_resident_bytes() / fp32_bytes,
                    "max_abs_err": float(np.abs(pred - fp32_pred).max()),
                    "artifact_bytes": artifact_bytes,
                }
            )
    return rows


def _render(rows: list[dict]) -> str:
    lines = [
        f"{'technique':>9} {'engine':>11} {'req/s':>10} {'hit':>6} "
        f"{'table bytes':>12} {'vs fp32':>8} {'cache rows':>10} {'max|Δlogit|':>12}"
    ]
    for r in rows:
        hit = f"{100 * r['cache_hit_rate']:.1f}%" if r["cache_hit_rate"] is not None else "—"
        cache = f"{r['cache_rows']:,}" if r["cache_rows"] else "—"
        lines.append(
            f"{r['technique']:>9} {r['config']:>11} {r['requests_per_sec']:>10,.0f} "
            f"{hit:>6} {r['table_bytes']:>12,} {r['mem_ratio']:>8.3f} "
            f"{cache:>10} {r['max_abs_err']:>12.2e}"
        )
    seen = set()
    for r in rows:
        if r["technique"] in seen:
            continue
        seen.add(r["technique"])
        sizes = r["artifact_bytes"]
        lines.append(
            f"{r['technique']:>9} artifact bytes: fp32 {sizes['fp32']:,} | "
            f"int8 {sizes['int8']:,} ({sizes['int8'] / sizes['fp32']:.3f}×) | "
            f"int4 {sizes['int4']:,} ({sizes['int4'] / sizes['fp32']:.3f}×)"
        )
    return "\n".join(lines)


def _get(rows: list[dict], technique: str, config: str) -> dict:
    return next(
        r for r in rows if r["technique"] == technique and r["config"] == config
    )


def _assert_gates(rows: list[dict], mem_ceil: float) -> None:
    for technique in ("full", "memcom"):
        int8 = _get(rows, technique, "int8+cache")
        int4 = _get(rows, technique, "int4+cache")
        fp32c = _get(rows, technique, "fp32+cache")
        assert int8["mem_ratio"] <= mem_ceil, (
            f"{technique}: int8 table-resident bytes {int8['mem_ratio']:.3f}× FP32 "
            f"(ceiling {mem_ceil}×)"
        )
        assert int4["table_bytes"] < int8["table_bytes"], (
            f"{technique}: int4 storage {int4['table_bytes']} not below "
            f"int8's {int8['table_bytes']}"
        )
        cache_ratio = int8["cache_rows"] / fp32c["cache_rows"]
        assert cache_ratio >= CACHE_ROWS_FLOOR, (
            f"{technique}: codes cache holds only {cache_ratio:.2f}× the FP32 "
            f"rows at a {CACHE_BUDGET_BYTES}-byte budget (floor {CACHE_ROWS_FLOOR}×)"
        )
        assert int8["max_abs_err"] <= INT8_PRED_TOL, (
            f"{technique}: int8 predictions off by {int8['max_abs_err']:.2e} "
            f"(documented tolerance {INT8_PRED_TOL:.0e})"
        )
        assert int4["max_abs_err"] <= INT4_PRED_TOL, (
            f"{technique}: int4 predictions off by {int4['max_abs_err']:.2e} "
            f"(documented tolerance {INT4_PRED_TOL:.0e})"
        )
        rps_ratio = int8["requests_per_sec"] / fp32c["requests_per_sec"]
        assert rps_ratio >= THROUGHPUT_SANITY_FLOOR, (
            f"{technique}: int8 cached serving collapsed to {rps_ratio:.2f}× the "
            f"FP32 cached requests/sec (sanity floor {THROUGHPUT_SANITY_FLOOR}×)"
        )
        sizes = int8["artifact_bytes"]
        art_ratio = sizes["int8"] / sizes["fp32"]
        assert art_ratio <= INT8_ARTIFACT_CEIL, (
            f"{technique}: int8 artifact is {art_ratio:.3f}× the FP32 artifact "
            f"on disk (ceiling {INT8_ARTIFACT_CEIL}×)"
        )
        assert sizes["int4"] < sizes["int8"], (
            f"{technique}: int4 artifact {sizes['int4']} not below int8's "
            f"{sizes['int8']}"
        )


def test_quantized_serving(benchmark):
    from conftest import run_once

    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    rows = run_once(benchmark, lambda: _sweep(scale))

    print()
    print(_render(rows))
    for r in rows:
        key = f"{r['technique']}_{r['config'].replace('+', '_')}"
        benchmark.extra_info[f"{key}_rps"] = round(r["requests_per_sec"])
        benchmark.extra_info[f"{key}_mem_ratio"] = round(r["mem_ratio"], 4)
        benchmark.extra_info[f"{key}_max_abs_err"] = float(r["max_abs_err"])
    seen = set()
    for r in rows:
        if r["technique"] in seen:
            continue
        seen.add(r["technique"])
        for label, size in r["artifact_bytes"].items():
            benchmark.extra_info[f"{r['technique']}_artifact_bytes_{label}"] = size
    _assert_gates(rows, INT8_MEM_CEIL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep; assert the quantized-serving gates (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = _sweep(scale=0.25, num_batches=24)
        print(_render(rows))
        _assert_gates(rows, INT8_MEM_CEIL_SMOKE)
        print(
            "\nsmoke gates passed: int8 memory ≤ "
            f"{INT8_MEM_CEIL_SMOKE}× FP32, codes cache ≥ {CACHE_ROWS_FLOOR}× rows, "
            "predictions within documented tolerance"
        )
    else:
        rows = _sweep(float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
        print(_render(rows))
        _assert_gates(rows, INT8_MEM_CEIL)
        print("\ngates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
