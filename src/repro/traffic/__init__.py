"""Million-user traffic simulation, replay, SLOs, and the perf gate.

The package turns "is serving fast?" from a static-Zipf throughput number
into a service-level question under realistic load:

* :mod:`~repro.traffic.model` — :class:`TrafficModel`: deterministic,
  seedable traffic with millions of distinct users, session locality,
  arrival bursts, and a Zipf head that drifts across phases
  (:meth:`TrafficSpec.stationary` is the i.i.d. Zipf throughput preset
  behind ``repro serve-bench``);
* :mod:`~repro.traffic.replay` — stream that traffic through a
  :class:`~repro.serve.ServeSession` and report p50/p95/p99 latency,
  requests/sec, and cache hit rate *per drift phase*;
* :mod:`~repro.traffic.slo` — :class:`SLOSpec`, declarative objectives a
  replay can be asserted against (absolute bounds + regression vs a
  recorded baseline);
* :mod:`~repro.traffic.bench` — the scenario grid (technique × bits ×
  workers) behind ``BENCH_traffic.json`` and ``repro traffic-bench``;
* :mod:`~repro.traffic.gate` — the cross-PR comparator ``benchmarks/
  gate.py`` uses to fail CI on >15% p99/throughput regressions.

See DESIGN.md §11.
"""

from repro.traffic.gate import GateResult, compare, load_report
from repro.traffic.model import TrafficModel, TrafficSpec, TrafficStep
from repro.traffic.replay import PhaseReport, ReplayReport, replay
from repro.traffic.slo import SLOSpec, SLOViolation

__all__ = [
    "TrafficModel",
    "TrafficSpec",
    "TrafficStep",
    "PhaseReport",
    "ReplayReport",
    "replay",
    "SLOSpec",
    "SLOViolation",
    "GateResult",
    "compare",
    "load_report",
]
