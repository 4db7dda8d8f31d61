"""TrafficModel determinism, drift, and session-structure contracts.

The load-bearing promise is determinism: a :class:`TrafficSpec` is a pure
description and the stream a pure function of it, so a recorded
``BENCH_traffic.json`` names a workload any machine can regenerate
bit-for-bit.  The strongest test here spawns a *separate Python process*
and compares SHA-256 stream checksums — same seed must survive process
boundaries, different seeds must not collide.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.traffic.model import TrafficModel, TrafficSpec

SPEC = TrafficSpec(
    vocab=5_000, input_length=8, num_users=1_000_000, num_phases=3,
    steps_per_phase=12, head_size=128, sessions_per_step=6.0, seed=11,
)


def _checksum_in_subprocess(spec: TrafficSpec) -> str:
    """Recompute the stream checksum in a fresh interpreter."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import json, sys\n"
        "from repro.traffic.model import TrafficModel, TrafficSpec\n"
        "spec = TrafficSpec(**json.loads(sys.argv[1]))\n"
        "print(TrafficModel(spec).checksum())\n"
    )
    import json

    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(spec.to_dict())],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestDeterminism:
    def test_same_seed_same_process_bit_identical(self):
        a, b = TrafficModel(SPEC), TrafficModel(SPEC)
        for sa, sb in zip(a.stream(), b.stream()):
            assert (sa.phase, sa.step, sa.burst) == (sb.phase, sb.step, sb.burst)
            np.testing.assert_array_equal(sa.requests, sb.requests)
            np.testing.assert_array_equal(sa.users, sb.users)

    def test_same_seed_across_processes_bit_identical(self):
        """The cross-process fingerprint: a fresh interpreter reproduces the
        exact stream (PCG64 is platform- and process-independent)."""
        assert TrafficModel(SPEC).checksum() == _checksum_in_subprocess(SPEC)

    def test_different_seeds_differ(self):
        assert TrafficModel(SPEC).checksum() != TrafficModel(
            SPEC.with_seed(SPEC.seed + 1)
        ).checksum()

    def test_checksum_is_stream_pure(self):
        """checksum() does not perturb or depend on prior stream() calls."""
        model = TrafficModel(SPEC)
        first = model.checksum()
        list(model.stream())
        assert model.checksum() == first


class TestDrift:
    def test_phase_zero_head_is_identity_ranks(self):
        model = TrafficModel(SPEC)
        np.testing.assert_array_equal(
            model.head_ids(0), np.arange(SPEC.head_size)
        )

    def test_phases_produce_measurably_different_heads(self):
        """Successive phases must swap ~drift_fraction of the head: overlap
        between any two phase head-sets ≈ 1 - drift_fraction."""
        model = TrafficModel(SPEC)
        heads = [set(model.head_ids(p).tolist()) for p in range(SPEC.num_phases)]
        for a in range(SPEC.num_phases):
            for b in range(a + 1, SPEC.num_phases):
                overlap = len(heads[a] & heads[b]) / SPEC.head_size
                # drift_fraction=0.6 → expect ~0.4 overlap; the fresh ids of
                # two phases are independent draws so allow wide slop, but
                # the heads must be far from identical and far from disjoint.
                assert 0.1 < overlap < 0.75, (a, b, overlap)

    def test_phase_map_is_a_permutation(self):
        model = TrafficModel(SPEC)
        for p in range(SPEC.num_phases):
            mapped = model._phase_maps[p]
            assert np.array_equal(np.sort(mapped), np.arange(SPEC.vocab))

    def test_zero_drift_never_remaps(self):
        spec = replace(SPEC, drift_fraction=0.0)
        model = TrafficModel(spec)
        for p in range(spec.num_phases):
            np.testing.assert_array_equal(
                model.head_ids(p), np.arange(spec.head_size)
            )


class TestStreamStructure:
    def test_ids_and_users_in_range(self):
        model = TrafficModel(SPEC)
        seen_users = set()
        total = 0
        for step in model.stream():
            assert step.requests.shape[1] == SPEC.input_length
            assert step.requests.dtype == np.int64
            if step.requests.size:
                assert step.requests.min() >= 0
                assert step.requests.max() < SPEC.vocab
                assert step.users.min() >= 0
                assert step.users.max() < SPEC.num_users
            assert step.users.shape[0] == step.requests.shape[0]
            seen_users.update(step.users.tolist())
            total += step.requests.shape[0]
        assert total > 0
        # Million-user space: sessions land on (almost) all-distinct users.
        assert len(seen_users) > 50

    def test_bursts_land_on_schedule_and_inflate_arrivals(self):
        model = TrafficModel(SPEC)
        burst_steps = [s.step for s in model.stream() if s.burst]
        assert burst_steps == [
            s for s in range(model.num_steps) if (s + 1) % SPEC.burst_every == 0
        ]
        # Burst steps admit ~burst_factor more sessions, so queue depth jumps.
        sizes = {s.step: s.requests.shape[0] for s in model.stream()}
        burst_mean = np.mean([sizes[s] for s in burst_steps])
        calm_mean = np.mean(
            [n for s, n in sizes.items() if s not in set(burst_steps)]
        )
        assert burst_mean > calm_mean

    def test_locality_concentrates_ids_within_sessions(self):
        """With locality=0.95 a request re-draws from a 12-item working set;
        with locality=0 it samples the global Zipf — distinct-ids-per-request
        must be far lower in the local regime."""

        def mean_distinct(locality):
            spec = replace(SPEC, locality=locality, input_length=12)
            counts = [
                len(np.unique(row))
                for step in TrafficModel(spec).stream()
                for row in step.requests
            ]
            return float(np.mean(counts))

        assert mean_distinct(0.95) < mean_distinct(0.0) - 1.0

    def test_num_steps_matches_stream_length(self):
        model = TrafficModel(SPEC)
        assert model.num_steps == SPEC.num_phases * SPEC.steps_per_phase
        assert sum(1 for _ in model.stream()) == model.num_steps


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vocab": 0},
            {"input_length": 0},
            {"num_users": -1},
            {"alpha": -0.5},
            {"drift_fraction": 1.5},
            {"head_size": 5_000},  # == vocab: no tail to draw fresh ids from
            {"sessions_per_step": 0.0},
            {"burst_factor": 0.5},
            {"locality": -0.1},
            {"steps_per_phase": 0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            replace(SPEC, **kwargs).validate()

    def test_head_size_bound_applies_only_with_drift(self):
        """Without drift no replacement ids are drawn from the tail, so a
        head as large as the vocabulary is legal; with drift it is not."""
        TrafficSpec(vocab=200, input_length=4, drift_fraction=0.0).validate()
        with pytest.raises(ValueError, match="head_size"):
            TrafficSpec(vocab=200, input_length=4, drift_fraction=0.1).validate()

    def test_to_dict_round_trips(self):
        assert TrafficSpec(**SPEC.to_dict()) == SPEC


class TestStationaryPreset:
    def test_two_equal_phases_same_head_and_requests_near_target(self):
        spec = TrafficSpec.stationary(5_000, 8, requests=4096, batch=64, seed=3)
        model = TrafficModel(spec)
        assert (spec.num_phases, spec.steps_per_phase) == (2, 32)
        np.testing.assert_array_equal(model.head_ids(0), model.head_ids(1))
        total = sum(step.requests.shape[0] for step in model.stream())
        # Poisson(4096) total: five standard deviations is 320 requests.
        assert abs(total - 4096) <= 5 * 64
