"""Request coalescing: many single requests → one batched engine call.

Serving traffic arrives as independent requests (one user's id sequence, or
a single id when ``input_length`` is 1).  Running the engine per request
wastes the substrate's vectorization; the :class:`Batcher` queues requests
and serves the whole queue in ``(max_batch, L)`` stacked batches, then
hands each request exactly the score row it would have received alone —
coalescing changes throughput, never results
(``tests/serve/test_batcher_cache.py``).

Validation is split by cost (:mod:`repro.serve.validation`): ``submit``
checks only shape and dtype, which are O(1); the id range is checked once
per flush over the stacked batch, one row per request.  A row out of range
is rejected on its own request and left out of the engine call, so one bad
request never poisons the batch it rides in.
"""

from __future__ import annotations

import time

import numpy as np

from repro.serve.validation import (
    InvalidRequest,
    out_of_range_rows,
    range_message,
    require_integer_ids,
)

__all__ = ["Batcher", "PendingRequest"]


class PendingRequest:
    """A submitted request, resolved by the next ``flush()``.

    A served request gets its score row on ``result``.  A request the
    flush rejects — an id outside the vocabulary — gets a typed
    :class:`~repro.serve.validation.InvalidRequest` on ``error`` instead,
    and ``result`` stays ``None``.  Either way ``done`` becomes true.

    ``latency_ms`` is the request's *own* wall-clock wait, submit→resolve:
    the clock starts when :meth:`Batcher.submit` accepts the request and
    stops when its result row is assigned.  Two riders of the same flush
    can therefore report different latencies — the one that queued longer
    waited longer — which is what makes replay percentiles honest (a
    flush-granularity number would hide exactly the queueing delay a
    latency SLO exists to bound).  A request requeued by a failed flush
    keeps its original start, so recovery time counts against it too.
    """

    __slots__ = ("ids", "result", "error", "submitted_at", "latency_ms")

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = ids
        self.result: np.ndarray | None = None
        self.error: InvalidRequest | None = None
        self.submitted_at = time.perf_counter()
        self.latency_ms: float | None = None

    @property
    def done(self) -> bool:
        return self.result is not None or self.error is not None


class Batcher:
    """Coalesce single requests into batched :meth:`InferenceEngine.predict` calls.

    By default flushing is explicit (the measurement loops own their batch
    boundaries).  With ``max_delay_ms`` set, the batcher self-flushes on
    :meth:`submit` once the batch is full **or** the oldest queued request
    has waited past the deadline — a latency SLO for trickling traffic: no
    request waits longer than ``max_delay_ms`` for co-riders, and a full
    batch never waits at all.  Auto-flushed requests carry their results on
    ``PendingRequest.result`` exactly as a manual flush would set them.
    """

    def __init__(
        self,
        engine,
        max_batch: int = 256,
        max_delay_ms: float | None = None,
    ) -> None:
        # ``engine`` is anything with predict/input_length/vocab_size — an
        # InferenceEngine, or the multi-process ServingRuntime.
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_delay_ms is not None and max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be non-negative, got {max_delay_ms}")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms) if max_delay_ms is not None else None
        self._pending: list[PendingRequest] = []
        self._oldest_pending_at: float | None = None
        self.auto_flushes = 0
        #: requests a flush rejected (ids out of range), never served
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, ids: np.ndarray | int) -> PendingRequest:
        """Queue one request: an ``(input_length,)`` id sequence, or a bare
        id when the model's input length is 1.

        Only O(1) checks run here: a wrong shape raises ``ValueError`` and
        a non-integer dtype raises
        :class:`~repro.serve.validation.InvalidRequest`, at once.  The id
        range is checked by the flush that serves the request.
        """
        ids = np.asarray(ids)
        if ids.ndim == 0:
            ids = ids[None]
        if ids.ndim != 1 or ids.shape[0] != self.engine.input_length:
            raise ValueError(
                f"request must be ({self.engine.input_length},) ids, got shape {ids.shape}"
            )
        require_integer_ids(ids)
        if ids.dtype != np.int64:
            # One id dtype keeps a mixed queue stacking into an integer
            # batch (uint64 with int64 would stack as float64).  uint64 ids
            # >= 2**63 wrap negative here; the flush rejects them as out of
            # range, which they are.
            ids = ids.astype(np.int64)
        request = PendingRequest(ids)
        self._pending.append(request)
        if self.max_delay_ms is not None:
            if self._oldest_pending_at is None:
                self._oldest_pending_at = time.monotonic()
            overdue = (
                1e3 * (time.monotonic() - self._oldest_pending_at) >= self.max_delay_ms
            )
            if len(self._pending) >= self.max_batch or overdue:
                self.auto_flushes += 1
                self.flush()
        return request

    def flush(self) -> list[np.ndarray]:
        """Serve every pending request in ``max_batch``-sized stacked batches.

        The queue is range-checked once, as one stacked batch.  A request
        holding an id outside the vocabulary is rejected: it gets an
        :class:`~repro.serve.validation.InvalidRequest` on ``.error``, is
        counted in ``rejected``, and is left out of the engine calls.  Its
        valid co-riders are served exactly as they would be without it.

        Returns the score rows of the served requests, in submission order
        (also set on each request's ``.result``), and clears the queue.
        Results are assigned per sub-batch as computed; if the engine fails
        mid-flush — with *any* exception, ``BaseException`` included, so a
        ``KeyboardInterrupt`` or an alarm-driven timeout cannot silently
        drop traffic — already-served requests keep their results and every
        undelivered valid request goes back on the queue (a rejected one
        never does).  The latency-deadline clock is restored along with
        them: a requeued request keeps its original wait start, so
        ``max_delay_ms`` still counts from when it was first submitted, not
        from when the engine recovered.
        """
        pending, self._pending = self._pending, []
        oldest, self._oldest_pending_at = self._oldest_pending_at, None
        if not pending:
            return []
        batch = np.stack([r.ids for r in pending])
        bad = out_of_range_rows(batch, self.engine.vocab_size)
        if bad.size:
            pending, batch = self._reject(pending, batch, bad)
        results: list[np.ndarray] = []
        for start in range(0, batch.shape[0], self.max_batch):
            try:
                scores = self.engine.predict(batch[start : start + self.max_batch])
            except BaseException:
                self._pending = pending[start:] + self._pending
                if self.max_delay_ms is not None:
                    self._oldest_pending_at = (
                        oldest if oldest is not None else time.monotonic()
                    )
                raise
            resolved_at = time.perf_counter()
            for request, row in zip(pending[start:], scores):
                request.result = row
                request.latency_ms = 1e3 * (resolved_at - request.submitted_at)
            results.extend(scores)
        return results

    def _reject(self, pending: list, batch: np.ndarray, bad: np.ndarray):
        """Resolve the ``bad`` rows with their error; return the rest."""
        resolved_at = time.perf_counter()
        vocab_size = self.engine.vocab_size
        for i in bad:
            request = pending[i]
            request.error = InvalidRequest(
                f"request {range_message(batch[i], vocab_size)}"
            )
            request.latency_ms = 1e3 * (resolved_at - request.submitted_at)
        self.rejected += bad.size
        keep = np.ones(len(pending), dtype=bool)
        keep[bad] = False
        return [r for r, k in zip(pending, keep) if k], batch[keep]

    def serve(self, requests) -> list[np.ndarray]:
        """Convenience: submit an iterable of requests and flush once.

        Returns what the flush returns.  If the flush rejected any of these
        requests, the first one's error is raised instead, after the valid
        requests have been served.
        """
        pending = [self.submit(ids) for ids in requests]
        results = self.flush()
        for request in pending:
            if request.error is not None:
                raise request.error
        return results
