"""Query-engine tests: batching identity, admission, fairness.

Everything runs on a memory-tier registry with the session-fitted Jacobi
model; the event loop is driven explicitly (tasks + ``sleep(0)``) where
dispatch order matters, so the fairness and admission assertions are
deterministic.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import (
    ModelRegistry,
    Query,
    QueryEngine,
    ServeConfig,
)
from repro.util.errors import AdmissionError, ServeError


def _engine(serve_model, **config_kwargs) -> QueryEngine:
    reg = ModelRegistry(root=None, mem_entries=4)
    reg.put(serve_model)
    defaults = {"max_batch": 16, "window_s": 0.005}
    defaults.update(config_kwargs)
    return QueryEngine(
        reg,
        default_model=serve_model.digest,
        config=ServeConfig(**defaults),
    )


async def _settle(n: int = 3) -> None:
    """Let already-runnable tasks advance without waiting wall-clock."""
    for _ in range(n):
        await asyncio.sleep(0)


def test_batched_answers_bit_identical_to_sequential(serve_model):
    targets = [32, 64, 128, 256]
    queries = [Query(target=targets[i % len(targets)]) for i in range(32)]

    async def main():
        engine = _engine(serve_model)
        await engine.start()
        answers = await asyncio.gather(*(engine.query(q) for q in queries))
        await engine.stop()
        return answers

    answers = asyncio.run(main())
    # the contract: a coalesced answer is bit-identical to what a
    # sequential single-target predict_many would have returned
    for q, a in zip(queries, answers):
        expected = serve_model.predict([q.target]).values[0]
        assert np.array_equal(a.values, expected)
    # and the queries actually shared array passes
    assert max(a.batch_size for a in answers) > 1


def test_distinct_models_never_share_a_batch(serve_model):
    other = replace(
        serve_model, spec=replace(serve_model.spec, code_version="other-build")
    )

    async def main():
        engine = _engine(serve_model, max_batch=64)
        engine.registry.put(other)
        await engine.start()
        answers = await asyncio.gather(
            *(engine.query(Query(target=64)) for _ in range(4)),
            *(
                engine.query(Query(target=64, model=other.digest))
                for _ in range(4)
            ),
        )
        await engine.stop()
        return engine, answers

    engine, answers = asyncio.run(main())
    # eight concurrent queries, but two models -> two batches of four
    assert engine.batcher.stats.batches == 2
    assert all(a.batch_size == 4 for a in answers)
    assert {a.model for a in answers} == {serve_model.digest, other.digest}


def test_unknown_model_is_rejected_up_front(serve_model):
    async def main():
        engine = _engine(serve_model)
        await engine.start()
        try:
            with pytest.raises(ServeError):
                await engine.query(Query(target=64, model="f" * 64))
        finally:
            await engine.stop()

    asyncio.run(main())


def test_query_validation(serve_model):
    with pytest.raises(ServeError):
        Query(target=0)
    with pytest.raises(ServeError):
        Query(target=64, kind="vibes")
    with pytest.raises(ServeError):
        ServeConfig(admission="maybe")


def test_admission_reject_sheds_overflow(serve_model):
    async def main():
        engine = _engine(
            serve_model, queue_depth=2, admission="reject"
        )
        # enqueue while the dispatcher is *not* running: the queue fills
        tasks = [
            asyncio.ensure_future(engine.query(Query(target=64)))
            for _ in range(4)
        ]
        await _settle()
        rejected = [t for t in tasks if t.done() and t.exception()]
        assert len(rejected) == 2
        assert all(
            isinstance(t.exception(), AdmissionError) for t in rejected
        )
        # the admitted queries are still answered once serving starts
        await engine.start()
        survivors = [t for t in tasks if t not in rejected]
        answers = await asyncio.gather(*survivors)
        await engine.stop()
        return engine, answers

    engine, answers = asyncio.run(main())
    assert len(answers) == 2
    assert engine.stats.rejected == 2
    assert engine.stats.answered == 2


def test_admission_wait_applies_backpressure_without_loss(serve_model):
    async def main():
        engine = _engine(serve_model, queue_depth=1, admission="wait")
        tasks = [
            asyncio.ensure_future(engine.query(Query(target=64)))
            for _ in range(3)
        ]
        await _settle()
        # nothing rejected; the overflow callers are parked waiting
        assert not any(t.done() for t in tasks)
        assert engine.stats.backpressure_waits >= 2
        await engine.start()
        answers = await asyncio.gather(*tasks)
        await engine.stop()
        return answers

    answers = asyncio.run(main())
    assert len(answers) == 3 and all(a.values is not None for a in answers)


def test_waiting_queries_enter_the_queue_in_arrival_order(serve_model):
    dispatched = []  # target per query, in dispatch order

    async def main():
        engine = _engine(serve_model, queue_depth=1, admission="wait")
        enqueue = engine.batcher.enqueue

        def recording_enqueue(key, query, expiry=None):
            dispatched.append(query.target)
            return enqueue(key, query, expiry)

        engine.batcher.enqueue = recording_enqueue
        # the dispatcher is not running: one query fills the queue and
        # three wait in line for its slot
        futs = [engine.submit(Query(target=t)) for t in (32, 64, 128, 256)]
        await engine.start()
        await asyncio.gather(*futs)
        await engine.stop()
        return engine

    engine = asyncio.run(main())
    assert dispatched == [32, 64, 128, 256]
    assert engine.stats.backpressure_waits == 3  # once per waiting query


def test_dispatch_round_robins_across_tenants(serve_model):
    dispatched = []  # tenant per query, in dispatch order

    async def main():
        engine = _engine(serve_model, max_batch=64)
        enqueue = engine.batcher.enqueue

        def recording_enqueue(key, query, expiry=None):
            dispatched.append(query.tenant)
            return enqueue(key, query, expiry)

        engine.batcher.enqueue = recording_enqueue
        tasks = []
        # tenant A floods first, then B files two queries
        for _ in range(6):
            tasks.append(
                asyncio.ensure_future(
                    engine.query(Query(target=64, tenant="A"))
                )
            )
            await asyncio.sleep(0)
        for _ in range(2):
            tasks.append(
                asyncio.ensure_future(
                    engine.query(Query(target=64, tenant="B"))
                )
            )
            await asyncio.sleep(0)
        await engine.start()
        await asyncio.gather(*tasks)
        await engine.stop()

    asyncio.run(main())
    # one query per tenant per cycle: B is served long before A drains
    assert dispatched[:4] == ["A", "B", "A", "B"]
    assert dispatched.count("A") == 6
    assert dispatched.count("B") == 2


def test_stop_drains_enqueued_queries(serve_model):
    async def main():
        engine = _engine(serve_model, window_s=30.0)  # deadline never fires
        tasks = [
            asyncio.ensure_future(engine.query(Query(target=t)))
            for t in (32, 64, 128)
        ]
        await _settle()
        await engine.start()
        # drain must flush the open (half-full) batch immediately
        await engine.stop(drain=True)
        return await asyncio.gather(*tasks)

    answers = asyncio.run(main())
    assert [a.target for a in answers] == [32, 64, 128]
    assert all(a.batch_size == 3 for a in answers)


def test_admission_accounting_in_metrics(serve_model):
    """Reject-mode sheds land in both the stats and the serve.* counters."""
    from repro.obs.metrics import REGISTRY

    before = REGISTRY.counters.get("serve.rejected", 0)

    async def main():
        engine = _engine(serve_model, queue_depth=1, admission="reject")
        tasks = [
            asyncio.ensure_future(engine.query(Query(target=64)))
            for _ in range(4)
        ]
        await _settle()
        await engine.start()
        await asyncio.gather(*tasks, return_exceptions=True)
        await engine.stop()
        return engine, tasks

    engine, tasks = asyncio.run(main())
    rejections = [
        t.exception() for t in tasks if t.exception() is not None
    ]
    assert len(rejections) == 3
    assert all(isinstance(e, AdmissionError) for e in rejections)
    assert engine.stats.rejected == 3
    assert REGISTRY.counters.get("serve.rejected", 0) - before == 3
    # accounting is exhaustive: every query rejected or answered
    assert engine.stats.answered == 1
    assert engine.stats.queries == (
        engine.stats.answered + engine.stats.failed + engine.stats.rejected
    )


def test_per_tenant_queue_depth_gauges(serve_model):
    """The serve.queue_depth.<tenant> gauge tracks each tenant's queue."""
    from repro.obs.metrics import REGISTRY

    async def main():
        engine = _engine(serve_model)
        depths = {}
        tasks = []
        for i in range(3):
            tasks.append(
                asyncio.ensure_future(
                    engine.query(Query(target=64, tenant="hot"))
                )
            )
            await asyncio.sleep(0)
            depths[f"enqueue{i}"] = REGISTRY.gauges["serve.queue_depth.hot"]
        tasks.append(
            asyncio.ensure_future(
                engine.query(Query(target=64, tenant="cold"))
            )
        )
        await asyncio.sleep(0)
        depths["cold"] = REGISTRY.gauges["serve.queue_depth.cold"]
        await engine.start()
        await asyncio.gather(*tasks)
        depths["hot_drained"] = REGISTRY.gauges["serve.queue_depth.hot"]
        depths["cold_drained"] = REGISTRY.gauges["serve.queue_depth.cold"]
        await engine.stop()
        return depths

    depths = asyncio.run(main())
    # the gauge rises with each admission, per tenant...
    assert depths["enqueue0"] == 1.0
    assert depths["enqueue1"] == 2.0
    assert depths["enqueue2"] == 3.0
    assert depths["cold"] == 1.0
    # ...and returns to zero once the dispatcher drains the queues
    assert depths["hot_drained"] == 0.0
    assert depths["cold_drained"] == 0.0


def test_loadgen_percentiles_match_hand_computed_values(serve_model):
    """p50/p95 come from linear-interpolation quantiles over latencies.

    A stub engine answers with prescribed latencies, so the report's
    percentile math is pinned against hand-computed values:
    sorted latencies [10, 20, 30, 40] ms -> p50 at position 1.5 is
    25 ms, p95 at position 2.85 is 30 + 0.85 * 10 = 38.5 ms.
    """
    from repro.serve import Answer, LoadSpec, run_load, synthetic_queries
    from repro.serve.batcher import BatcherStats

    latencies_ms = [30.0, 10.0, 40.0, 20.0]  # submission order

    class _StubEngine:
        def __init__(self):
            self.n = 0
            # runs no batch: only the per-answer mean sees batch_size
            self.batcher = SimpleNamespace(stats=BatcherStats())

        async def query(self, q):
            i = self.n
            self.n += 1
            return Answer(
                target=q.target,
                kind=q.kind,
                model="stub",
                tenant=q.tenant,
                values=np.zeros((1, 1)),
                runtime_s=None,
                batch_size=2,
                latency_s=latencies_ms[i] / 1e3,
            )

    spec = LoadSpec(n_queries=4, targets=(64,), name="p95-math")
    queries = synthetic_queries(spec, model="stub")
    report, answers = asyncio.run(run_load(_StubEngine(), queries))
    assert len(answers) == 4 and all(a is not None for a in answers)
    assert report.p50_ms == pytest.approx(25.0)
    assert report.p95_ms == pytest.approx(38.5)
    assert report.mean_answer_batch == pytest.approx(2.0)
    assert report.rejected == 0 and report.errors == 0


def test_summary_reports_all_layers(serve_model):
    async def main():
        engine = _engine(serve_model)
        await engine.start()
        await engine.query(Query(target=64))
        await engine.stop()
        return engine.summary()

    summary = asyncio.run(main())
    assert summary["engine"]["answered"] == 1
    assert summary["batcher"]["batches"] == 1
    assert summary["latency"]["count"] == 1
    assert summary["latency"]["p95_s"] >= summary["latency"]["p50_s"] >= 0.0
    assert "mem_hits" in summary["registry"]


async def _ask_in_turn(engine, queries):
    """Answer ``queries`` one after another on a started engine."""
    await engine.start()
    answers = [await engine.query(q) for q in queries]
    await engine.stop()
    return answers


def test_memo_hit_equals_a_fresh_batched_answer(serve_model):
    """A repeated (model, target) is answered from the memo, bit for bit
    what a fresh engine's batch computes; a runtime query waits for a
    replayed runtime, and the books still close."""
    engine = _engine(serve_model)
    queries = [
        Query(target=64),  # batch: memoizes the matrix
        Query(target=64, kind="runtime"),  # batch: no runtime memoized yet
        Query(target=64, kind="runtime"),  # memo
        Query(target=64),  # memo
    ]
    answers = asyncio.run(_ask_in_turn(engine, queries))
    fresh_features, fresh_runtime = (
        asyncio.run(_ask_in_turn(_engine(serve_model), [q]))[0]
        for q in queries[:2]
    )
    assert engine.batcher.stats.batches == 2
    assert engine.stats.memo_hits == 2
    runtime_hit, features_hit = answers[2], answers[3]
    assert runtime_hit.batch_size == features_hit.batch_size == 1
    assert runtime_hit.values.tobytes() == fresh_runtime.values.tobytes()
    assert runtime_hit.runtime_s == fresh_runtime.runtime_s
    assert features_hit.values.tobytes() == fresh_features.values.tobytes()
    assert features_hit.runtime_s is None
    assert not features_hit.values.flags.writeable
    summary = engine.summary()["engine"]
    assert summary["memo_hits"] == 2 and summary["answered"] == 4
    assert summary["answered"] == (
        summary["queries"] - summary["failed"] - summary["rejected"]
    )


def test_memo_evicts_least_recently_used_past_its_byte_bound(
    serve_model, monkeypatch
):
    from repro.serve import engine as engine_module

    nbytes = serve_model.predict([32]).values[0].nbytes
    monkeypatch.setattr(engine_module, "ANSWER_MEMO_BYTES", 2 * nbytes)
    engine = _engine(serve_model)
    # 32 and 64 fill the bound; the hit on 32 leaves 64 least recently
    # used, so 128 pushes 64 out and 32 is still answered from the memo
    targets = [32, 64, 32, 128, 32, 64]
    asyncio.run(_ask_in_turn(engine, [Query(target=t) for t in targets]))
    assert engine.stats.memo_hits == 2
    assert engine.batcher.stats.batches == 4
    assert list(engine._memo) == [
        (serve_model.digest, 32), (serve_model.digest, 64)
    ]
    assert engine._memo_bytes == 2 * nbytes


def test_memo_hit_is_answered_at_admission(serve_model):
    """A hit for a tenant with nothing queued is answered by ``submit``
    itself: the future comes back done and no batch is touched."""

    async def main():
        engine = _engine(serve_model)
        await engine.start()
        first = await engine.query(Query(target=64))
        before = engine.batcher.stats.to_dict()
        fut = engine.submit(Query(target=64))
        done_at_admission = fut.done()
        hit = await fut
        after = engine.batcher.stats.to_dict()
        await engine.stop()
        return engine, first, hit, done_at_admission, before, after

    engine, first, hit, done_at_admission, before, after = asyncio.run(main())
    assert done_at_admission
    assert after == before
    assert engine.stats.memo_hits == 1 and engine.stats.answered == 2
    assert hit.batch_size == 1
    assert hit.values.tobytes() == first.values.tobytes()


def test_memo_hit_queued_behind_its_tenant_is_answered_after_it(serve_model):
    """A tenant with a query in its queue gets no answer at admission:
    its memo hits wait their turn, and are answered at dispatch in
    arrival order, after the queries ahead of them were dispatched."""

    async def main():
        engine = _engine(serve_model)
        await engine.start()
        await engine.query(Query(target=64))  # memoized
        events = []

        def note(name, _fut):
            events.append((name, engine.batcher.stats.queries))

        # one loop turn: a miss, then two hits behind it
        futs = [engine.submit(Query(target=t)) for t in (128, 64, 64)]
        queued = [not f.done() for f in futs]
        for name, fut in zip(("miss", "hit1", "hit2"), futs):
            fut.add_done_callback(partial(note, name))
        await asyncio.gather(*futs)
        await engine.stop()
        return engine, queued, events

    engine, queued, events = asyncio.run(main())
    assert queued == [True, True, True]
    names = [name for name, _ in events]
    assert names.index("hit1") < names.index("hit2")
    # the miss had entered its batch before either hit was answered
    assert dict(events)["hit1"] == dict(events)["hit2"] == 2
    assert engine.stats.memo_hits == 2
    assert engine.batcher.stats.batches == 2
