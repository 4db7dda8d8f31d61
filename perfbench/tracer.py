"""Spans recorded around calls into the program's layers, from outside it.

The traced run wraps public callables of the serving and training layers
(``Batcher.submit``, ``LRUCache.lookup``, ``Optimizer.step``, ...) on the
objects the benchmark already holds.  Each call becomes one span: name,
start, end and the index of the span that was open when it began (its
cause).  Spans stay in memory and are summarized, and optionally dumped,
when the run ends.  Nothing in ``src/`` knows it is being traced.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

__all__ = ["Tracer"]

_perf = time.perf_counter


class Tracer:
    """Wraps callables in place and records one span per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until :meth:`restore`.

        ``owner`` may be an instance (bound method), a class (function; the
        wrapper then receives ``self`` positionally) or a module (a global
        the program looks up at call time).
        """
        original = getattr(owner, attr)
        own = vars(owner)
        had_own = attr in own
        saved = own[attr] if had_own else None
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )

        # _open/_close inlined: this runs once per request on the hot path,
        # and its cost is what tracing.overhead_pct reports.
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = _perf()
            try:
                return original(*args, **kwargs)
            finally:
                ends[idx] = _perf()
                starts[idx] = start
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, had_own, saved))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (e.g. one per stream step)."""
        idx = self._open(name)
        start = _perf()
        try:
            yield
        finally:
            self._close(idx, start)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        self.ends[idx] = _perf()
        self.starts[idx] = start
        self._stack.pop()

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, had_own, saved = self._patches.pop()
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    # -- summaries --------------------------------------------------------------

    def _arrays(self):
        dur = np.asarray(self.ends, dtype=np.float64) - np.asarray(
            self.starts, dtype=np.float64
        )
        return np.asarray(self.names, dtype=object), dur, np.asarray(
            self.parents, dtype=np.int64
        )

    def durations(self, name: str, minus_children: tuple[str, ...] = ()) -> np.ndarray:
        """Seconds per call of ``name``, less the time of the named children."""
        names, dur, parents = self._arrays()
        if not names.size:
            return np.empty(0)
        own = dur.copy()
        if minus_children:
            child = np.isin(names, minus_children) & (parents >= 0)
            own -= np.bincount(
                parents[child], weights=dur[child], minlength=names.size
            )
        return own[names == name]

    def starts_of(self, name: str) -> np.ndarray:
        """Start times (``perf_counter`` seconds) of the spans named ``name``."""
        return np.asarray([t for n, t in zip(self.names, self.starts) if n == name])

    def count(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def dump(self, path: str, limit: int = 20_000) -> None:
        """Write the first ``limit`` spans as JSON lines (times in µs)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(min(limit, len(self.names))):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[i],
                    "parent": self.parents[i],
                    "start_us": round(1e6 * (self.starts[i] - t0), 1),
                    "dur_us": round(1e6 * (self.ends[i] - self.starts[i]), 1),
                }) + "\n")

