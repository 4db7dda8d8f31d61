"""Deterministic million-user traffic simulation with Zipf-head drift.

Static Zipf draws — one ``ZipfSampler``, one popularity ordering, i.i.d.
requests — are one preset here (:meth:`TrafficSpec.stationary`, the
throughput workload).  Real on-device traffic — the regime the paper
optimizes for — looks nothing like that:

* **Millions of distinct users** arrive in *sessions*, not as one stream;
* each session shows strong **item locality** (a user re-touches a small
  working set — see *Efficient On-Device Session-Based Recommendation*,
  PAPERS.md) layered on the global Zipf skew;
* arrivals are **bursty**, so queue depth (and therefore latency) varies;
* the Zipf **head drifts**: yesterday's hot items are replaced over time,
  which is exactly the non-stationarity the LRU admission TTL (DESIGN.md
  §8) was built for and had never been stressed under.

:class:`TrafficModel` generates that traffic *deterministically* from one
seed: the same :class:`TrafficSpec` produces a bit-identical request stream
in any process on any machine (``tests/traffic/test_traffic_model.py``
spawns a subprocess to prove it), so latency benches replay a pinned
workload and regressions are attributable to the serving stack, never to
the traffic.

The generative model, step by step (a *step* is one arrival tick — the
replay harness flushes the batcher once per step):

1. New sessions arrive with a bursty rate: every ``burst_every``-th step
   draws arrivals at ``burst_factor ×`` the base Poisson rate.
2. A new session belongs to a uniformly drawn user (of ``num_users``) and
   samples a ``session_items``-sized working set from the *current phase's*
   Zipf law; its length (requests) is geometric with mean
   ``session_length``.
3. Every active session emits one request per step: each of the
   ``input_length`` ids comes from the session's working set with
   probability ``locality``, otherwise from the phase's global Zipf draw.
4. Time is split into ``num_phases`` equal phases.  Phase ``p`` remaps the
   top ``drift_fraction · head_size`` popularity ranks to fresh item ids
   drawn from the tail (a deterministic per-phase permutation), so the
   identity of the hot head changes while the *shape* of the skew does not
   — the drift the admission-TTL property tests replay.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.zipf import ZipfSampler

__all__ = ["TrafficSpec", "TrafficStep", "TrafficModel"]


@dataclass(frozen=True)
class TrafficSpec:
    """Declarative traffic shape — one frozen value object per workload.

    The defaults describe the acceptance workload: one million distinct
    users, a drifting three-phase Zipf(1.1) head, bursty session arrivals.
    ``vocab`` and ``input_length`` must match the served model's contract.
    """

    vocab: int
    input_length: int
    num_users: int = 1_000_000
    alpha: float = 1.1
    num_phases: int = 3
    steps_per_phase: int = 32
    #: fraction of the top-``head_size`` ranks remapped to fresh ids per phase
    drift_fraction: float = 0.6
    head_size: int = 256
    #: mean new sessions per step (Poisson); bursts multiply this
    sessions_per_step: float = 8.0
    burst_every: int = 8
    burst_factor: float = 4.0
    #: mean requests per session (geometric)
    session_length: int = 6
    #: per-session working-set size (the locality pool)
    session_items: int = 12
    #: probability an id is drawn from the session working set
    locality: float = 0.7
    seed: int = 0

    def validate(self) -> "TrafficSpec":
        for name in ("vocab", "input_length", "num_users", "num_phases",
                     "steps_per_phase", "head_size", "burst_every",
                     "session_length", "session_items"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not 0.0 <= self.drift_fraction <= 1.0:
            raise ValueError(
                f"drift_fraction must be in [0, 1], got {self.drift_fraction}"
            )
        if self.drift_fraction > 0 and self.head_size >= self.vocab:
            raise ValueError(
                f"head_size must be < vocab ({self.vocab}) so drift can draw "
                f"replacement ids from the tail, got {self.head_size}"
            )
        if self.sessions_per_step <= 0:
            raise ValueError(
                f"sessions_per_step must be positive, got {self.sessions_per_step}"
            )
        if self.burst_factor < 1.0:
            raise ValueError(
                f"burst_factor must be >= 1 (1 = no bursts), got {self.burst_factor}"
            )
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(f"locality must be in [0, 1], got {self.locality}")
        return self

    @classmethod
    def stationary(
        cls,
        vocab: int,
        input_length: int,
        requests: int,
        batch: int,
        alpha: float = 1.1,
        seed: int = 0,
    ) -> "TrafficSpec":
        """i.i.d. bounded-Zipf(``alpha``) requests, ``batch`` per step on average.

        No drift, no locality, no bursts, one request per session: every id
        is an independent draw from one fixed Zipf law.  The ``requests``
        are split over two phases of equal length, at least one step each.
        Phase 0 is the warm-up (it fills the cache and the allocator pools);
        phase 1 is the steady state a throughput number should report —
        the paper's "initialization excluded" convention (§5.3).
        """
        return cls(
            vocab=vocab,
            input_length=input_length,
            alpha=alpha,
            num_phases=2,
            steps_per_phase=max(1, -(-requests // (2 * batch))),
            drift_fraction=0.0,
            sessions_per_step=float(batch),
            burst_factor=1.0,
            session_length=1,
            locality=0.0,
            seed=seed,
        )

    def with_seed(self, seed: int) -> "TrafficSpec":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        """JSON-able view — pinned into ``BENCH_traffic.json`` so a recorded
        run names the exact workload it measured."""
        return {f.name: getattr(self, f.name) for f in _spec_fields()}


def _spec_fields():
    import dataclasses

    return dataclasses.fields(TrafficSpec)


@dataclass(frozen=True)
class TrafficStep:
    """One arrival tick: every active session's request, stacked."""

    phase: int
    step: int  # global step index across phases
    #: ``(n_requests, input_length)`` int64 ids (may be empty)
    requests: np.ndarray
    #: ``(n_requests,)`` int64 user id of each request's session
    users: np.ndarray
    #: True when this step's arrivals were burst-inflated
    burst: bool = field(default=False)


class _Session:
    __slots__ = ("user", "working_set", "remaining")

    def __init__(self, user: int, working_set: np.ndarray, remaining: int) -> None:
        self.user = user
        self.working_set = working_set
        self.remaining = remaining


class TrafficModel:
    """Seeded generator of drifting, session-structured Zipf traffic.

    Determinism contract: every random draw comes from generators seeded as
    ``default_rng([seed, tag, ...])`` and consumed in a fixed order, so the
    stream is a pure function of the spec — bit-identical across processes
    and platforms (PCG64 is specified exactly).
    """

    def __init__(self, spec: TrafficSpec) -> None:
        self.spec = spec.validate()
        self._sampler = ZipfSampler(spec.vocab, spec.alpha)
        # rank → item-id map per phase; phase 0 is the identity ordering.
        self._phase_maps = [self._phase_map(p) for p in range(spec.num_phases)]

    # -- drift ------------------------------------------------------------------

    def _phase_map(self, phase: int) -> np.ndarray:
        spec = self.spec
        perm = np.arange(spec.vocab, dtype=np.int64)
        k = int(round(spec.drift_fraction * spec.head_size))
        if phase == 0 or k == 0:
            return perm
        rng = np.random.default_rng([spec.seed, 0xD51F7, phase])
        # Swap the hottest k ranks with fresh ids from the tail region; a
        # swap keeps the map a permutation, so popularity mass is conserved
        # and no item id appears at two ranks.
        fresh = spec.head_size + rng.choice(
            spec.vocab - spec.head_size, size=k, replace=False
        )
        perm[:k], perm[fresh] = fresh, np.arange(k, dtype=np.int64)
        return perm

    def head_ids(self, phase: int, k: int | None = None) -> np.ndarray:
        """The ``k`` most-popular item ids of ``phase`` (default: head_size)."""
        k = self.spec.head_size if k is None else int(k)
        return self._phase_maps[phase][:k].copy()

    def sample_ids(
        self, phase: int, size, rng: np.random.Generator
    ) -> np.ndarray:
        """Item ids drawn from ``phase``'s Zipf law (rank draw → phase map)."""
        return self._phase_maps[phase][self._sampler.sample(rng, size)]

    # -- the stream -------------------------------------------------------------

    @property
    def num_steps(self) -> int:
        return self.spec.num_phases * self.spec.steps_per_phase

    def stream(self):
        """Yield :class:`TrafficStep`\\ s in arrival order (the whole run)."""
        spec = self.spec
        rng = np.random.default_rng([spec.seed, 0x7AF1C])
        sessions: list[_Session] = []
        step_global = 0
        for phase in range(spec.num_phases):
            for _ in range(spec.steps_per_phase):
                burst = (step_global + 1) % spec.burst_every == 0
                rate = spec.sessions_per_step * (spec.burst_factor if burst else 1.0)
                for _ in range(int(rng.poisson(rate))):
                    sessions.append(
                        _Session(
                            user=int(rng.integers(spec.num_users)),
                            working_set=self.sample_ids(
                                phase, spec.session_items, rng
                            ),
                            remaining=int(rng.geometric(1.0 / spec.session_length)),
                        )
                    )
                n = len(sessions)
                L = spec.input_length
                if n:
                    pools = np.stack([s.working_set for s in sessions])
                    local = pools[
                        np.arange(n)[:, None],
                        rng.integers(0, spec.session_items, (n, L)),
                    ]
                    ids = np.where(
                        rng.random((n, L)) < spec.locality,
                        local,
                        self.sample_ids(phase, (n, L), rng),
                    )
                    users = np.array([s.user for s in sessions], dtype=np.int64)
                else:
                    ids = np.empty((0, L), dtype=np.int64)
                    users = np.empty(0, dtype=np.int64)
                yield TrafficStep(
                    phase=phase, step=step_global, requests=ids, users=users,
                    burst=burst,
                )
                for s in sessions:
                    s.remaining -= 1
                sessions = [s for s in sessions if s.remaining > 0]
                step_global += 1

    def checksum(self) -> str:
        """SHA-256 over the full request stream (ids + users + phase/step).

        The determinism fingerprint: two processes with the same spec must
        produce the same digest, and any change to the generator is a
        *workload* change that benches must treat as a new baseline.
        """
        h = hashlib.sha256()
        for step in self.stream():
            h.update(np.int64(step.phase).tobytes())
            h.update(np.int64(step.step).tobytes())
            h.update(np.ascontiguousarray(step.requests).tobytes())
            h.update(np.ascontiguousarray(step.users).tobytes())
        return h.hexdigest()

    def __repr__(self) -> str:
        s = self.spec
        return (
            f"TrafficModel(users={s.num_users:,}, vocab={s.vocab}, "
            f"Zipf({s.alpha}), phases={s.num_phases}x{s.steps_per_phase}, "
            f"drift={s.drift_fraction}, seed={s.seed})"
        )
