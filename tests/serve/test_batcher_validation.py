"""Request validation: O(1) checks at submit, the id range once per flush.

The contract these tests pin: a request with a wrong shape or a non-integer
dtype is refused by ``submit``; a request holding an id outside the
vocabulary is rejected by the flush on its own ``PendingRequest`` (a typed
``InvalidRequest`` on ``.error``), is never sent to the engine and is never
requeued — and its valid co-riders are served bit-identically to a queue
that never held it.
"""

import numpy as np
import pytest

from repro.artifact import save_artifact
from repro.models.builder import build_pointwise_ranker
from repro.serve import Batcher, InferenceEngine, InvalidRequest, ServeConfig, ServeSession
from repro.traffic.model import TrafficModel, TrafficSpec
from repro.traffic.replay import replay

V, L, E, C = 300, 6, 16, 10


def _model(seed=0):
    return build_pointwise_ranker(
        "memcom", V, C, input_length=L, embedding_dim=E,
        num_hash_embeddings=32, rng=seed,
    )


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("validation") / "m.artifact")
    save_artifact(_model(), path)
    return path


def _mixed_queue(n_valid=9, seed=0):
    """``(kind, ids)`` pairs interleaving valid requests with every kind of
    bad one: negative, ``>= vocab``, float and bool ids."""
    rng = np.random.default_rng(seed)
    bad = {
        "negative": lambda: np.where(np.arange(L) == 2, -1, rng.integers(0, V, L)),
        "too_big": lambda: np.where(np.arange(L) == 4, V, rng.integers(0, V, L)),
        "float": lambda: rng.integers(0, V, L).astype(np.float64),
        "bool": lambda: np.ones(L, dtype=bool),
    }
    kinds = list(bad)
    queue = []
    for i in range(n_valid):
        queue.append(("valid", rng.integers(0, V, L)))
        queue.append((kinds[i % len(kinds)], bad[kinds[i % len(kinds)]]()))
    return queue


def _submit_mixed(submit, queue):
    """Submit the queue; return ``(valid pendings, rejected-at-flush pendings)``
    after checking that float and bool ids are refused at submit."""
    valid, out_of_range = [], []
    for kind, ids in queue:
        if kind in ("float", "bool"):
            with pytest.raises(InvalidRequest, match="integers"):
                submit(ids)
            continue
        (valid if kind == "valid" else out_of_range).append(submit(ids))
    return valid, out_of_range


def _clean_rows(queue, max_batch):
    """What the valid requests get from a queue that never held a bad one."""
    batcher = Batcher(InferenceEngine(_model(), cache_rows=64), max_batch=max_batch)
    return batcher.serve([ids for kind, ids in queue if kind == "valid"])


def _assert_mixed_outcome(valid, out_of_range, clean):
    assert len(valid) == len(clean)
    for request, want in zip(valid, clean):
        assert request.done and request.error is None
        np.testing.assert_array_equal(request.result, want)
    assert out_of_range
    for request in out_of_range:
        assert request.done and request.result is None
        assert isinstance(request.error, InvalidRequest)
        assert "out of range" in str(request.error)


class TestMixedQueue:
    @pytest.mark.parametrize("max_batch", [1, 4, 256])
    def test_explicit_flush(self, max_batch):
        queue = _mixed_queue()
        engine = InferenceEngine(_model(), cache_rows=64)
        batcher = Batcher(engine, max_batch=max_batch)
        valid, out_of_range = _submit_mixed(batcher.submit, queue)
        results = batcher.flush()
        assert len(batcher) == 0
        assert len(results) == len(valid)
        _assert_mixed_outcome(valid, out_of_range, _clean_rows(queue, max_batch))
        assert batcher.rejected == len(out_of_range)
        assert engine.requests_served == len(valid)

    def test_max_delay_auto_flush(self):
        queue = _mixed_queue()
        engine = InferenceEngine(_model(), cache_rows=64)
        # A deadline no test reaches: every auto-flush fires on a full batch.
        batcher = Batcher(engine, max_batch=3, max_delay_ms=1e6)
        valid, out_of_range = _submit_mixed(batcher.submit, queue)
        assert batcher.auto_flushes > 0
        batcher.flush()
        assert len(batcher) == 0
        # Rejected rows leave their batches short, so the clean queue is
        # cut differently; coalescing never changes a row's bytes.
        _assert_mixed_outcome(valid, out_of_range, _clean_rows(queue, 3))
        assert batcher.rejected == len(out_of_range)

    def test_workers_session(self, artifact):
        queue = _mixed_queue()
        with ServeSession.load(artifact, ServeConfig(workers=2, max_batch=4)) as session:
            valid, out_of_range = _submit_mixed(session.submit, queue)
            session.flush()
            assert len(session.batcher) == 0
            stats = session.stats()
        _assert_mixed_outcome(valid, out_of_range, _clean_rows(queue, 4))
        assert stats["rejected_requests"] == len(out_of_range)
        assert stats["requests_served"] == len(valid)


class TestRejectionLifecycle:
    def test_engine_failure_never_requeues_a_rejected_request(self):
        engine = InferenceEngine(_model())
        batcher = Batcher(engine, max_batch=2)
        rng = np.random.default_rng(9)
        ids = [rng.integers(0, V, L) for _ in range(5)]
        pendings = [batcher.submit(i) for i in ids[:2]]
        bad = batcher.submit(np.full(L, V))
        pendings += [batcher.submit(i) for i in ids[2:]]
        calls = {"n": 0}
        real_predict = engine.predict

        def failing_predict(batch):
            calls["n"] += 1
            if calls["n"] == 2:  # the second sub-batch dies
                raise RuntimeError("engine fell over")
            return real_predict(batch)

        engine.predict = failing_predict
        with pytest.raises(RuntimeError):
            batcher.flush()
        # The bad request resolved with its error before any engine call;
        # the first sub-batch was served; only the 3 valid rest requeue.
        assert isinstance(bad.error, InvalidRequest)
        error = bad.error
        assert pendings[0].done and pendings[1].done
        assert len(batcher) == 3 and bad not in batcher._pending
        engine.predict = real_predict
        assert len(batcher.flush()) == 3
        assert all(p.done and p.error is None for p in pendings)
        for request, want in zip(pendings, ids):
            np.testing.assert_array_equal(request.result, engine.predict_one(want))
        assert bad.error is error and bad.result is None
        assert batcher.rejected == 1

    def test_all_rejected_flush_serves_nothing(self):
        engine = InferenceEngine(_model())
        batcher = Batcher(engine)
        bad = [batcher.submit(np.full(L, -5)), batcher.submit(np.full(L, V + 7))]
        assert batcher.flush() == []
        assert len(batcher) == 0 and engine.batches_served == 0
        assert all(isinstance(r.error, InvalidRequest) for r in bad)
        assert all(r.latency_ms is not None for r in bad)

    def test_serve_raises_first_rejection_after_delivering_the_rest(self):
        engine = InferenceEngine(_model())
        batcher = Batcher(engine)
        rng = np.random.default_rng(3)
        requests = [rng.integers(0, V, L), np.full(L, V), rng.integers(0, V, L),
                    np.full(L, -1)]
        with pytest.raises(InvalidRequest, match=rf"\[{V}, {V}\]"):
            batcher.serve(requests)
        assert engine.requests_served == 2 and len(batcher) == 0
        assert batcher.rejected == 2

    def test_session_stats_count_rejections(self):
        session = ServeSession.from_model(_model())
        assert session.stats()["rejected_requests"] == 0
        session.submit(np.full(L, V))
        session.submit(np.zeros(L, dtype=np.int64))
        assert len(session.flush()) == 1
        assert session.stats()["rejected_requests"] == 1


class TestIdDtypes:
    def test_float_request_is_refused_and_does_not_poison_the_queue(self):
        """A float request used to be accepted, then break every later
        flush with a raw ``IndexError`` (requeued forever)."""
        engine = InferenceEngine(_model())
        batcher = Batcher(engine)
        good = batcher.submit(np.arange(L))
        for bad in (np.arange(L) + 0.5, np.ones(L, dtype=bool),
                    np.array([object()] * L, dtype=object)):
            with pytest.raises(InvalidRequest):
                batcher.submit(bad)
        assert len(batcher.flush()) == 1 and good.error is None
        assert len(batcher) == 0

    def test_mixed_integer_dtypes_stack_and_serve(self):
        engine = InferenceEngine(_model())
        batcher = Batcher(engine)
        ids = np.arange(L) * 7
        dtypes = (np.int64, np.int32, np.uint8, np.uint64, np.int16)
        pendings = [batcher.submit(ids.astype(dt)) for dt in dtypes]
        huge = batcher.submit(np.full(L, 2**63 + 5, dtype=np.uint64))
        results = batcher.flush()
        assert len(results) == len(dtypes)
        want = engine.predict_one(ids)
        for request in pendings:
            np.testing.assert_array_equal(request.result, want)
        assert isinstance(huge.error, InvalidRequest)

    @pytest.mark.parametrize(
        "ids", [np.zeros((2, L)), np.zeros((2, L), dtype=bool),
                np.zeros((2, L), dtype=object)],
    )
    def test_predict_refuses_non_integer_ids(self, ids):
        engine = InferenceEngine(_model())
        with pytest.raises(InvalidRequest, match="integers"):
            engine.predict(ids)
        with pytest.raises(InvalidRequest, match="integers"):
            engine.compose_rows(ids.ravel())

    def test_bare_python_ints_still_accepted(self):
        engine = InferenceEngine(build_pointwise_ranker(
            "memcom", V, C, input_length=1, embedding_dim=E,
            num_hash_embeddings=32, rng=0,
        ))
        assert len(Batcher(engine).serve([0, 5, V - 1])) == 3
        with pytest.raises(InvalidRequest):
            Batcher(engine).submit(1.0)


class TestReplayRejection:
    def test_replay_raises_the_rejected_requests_typed_error(self, artifact):
        # Traffic drawn over a larger vocabulary than the model serves.
        spec = TrafficSpec(
            vocab=4 * V, input_length=L, num_users=500, num_phases=1,
            steps_per_phase=6, head_size=16, sessions_per_step=3.0, seed=2,
        )
        with ServeSession.load(artifact) as session:
            with pytest.raises(InvalidRequest, match=r"replay step \d+, request \d+") as info:
                replay(session, TrafficModel(spec))
        assert isinstance(info.value.__cause__, InvalidRequest)
        assert "out of range" in str(info.value)
