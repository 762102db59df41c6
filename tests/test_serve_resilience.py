"""Serving-tier fault-discipline tests: breakers, deadlines, registry.

The resilience contract (DESIGN §7.10) is that a serving failure is
always *fast and typed* — a query gets a DeadlineExceededError /
CircuitOpenError / ServeError answer, never a hang — and that every
recovery event is tallied exactly once in the engine's
:class:`~repro.serve.resilience.ServeReport`.  The breaker state
machine takes explicit ``now`` values, so every transition here is
driven without sleeping; the engine-level tests use real (tiny) windows
only where wall clock is the thing under test.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.exec import faults
from repro.obs.metrics import REGISTRY
from repro.serve import (
    CircuitBreaker,
    FittedModel,
    ModelRegistry,
    Query,
    QueryEngine,
    ServeConfig,
    ServeReport,
)
from repro.serve.registry import FAULT_FILES, MACHINE_FILE
from repro.util.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServeError,
)


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


def _variant(model: FittedModel, **spec_changes) -> FittedModel:
    return replace(model, spec=replace(model.spec, **spec_changes))


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker("m" * 64, threshold=3, open_s=1.0)
        for _ in range(2):
            b.record_failure(now=0.0)
        assert b.state == "closed" and b.admit(0.0)
        b.record_failure(now=0.0)
        assert b.state == "open" and b.opens == 1
        assert not b.admit(0.5)  # still inside the open window

    def test_success_resets_the_failure_streak(self):
        b = CircuitBreaker("m" * 64, threshold=2, open_s=1.0)
        b.record_failure(now=0.0)
        b.record_success()
        b.record_failure(now=0.0)
        assert b.state == "closed"  # never two *consecutive* failures

    def test_jittered_window_is_deterministic_per_model_and_open(self):
        a = CircuitBreaker("a" * 64, threshold=1, open_s=1.0)
        b = CircuitBreaker("a" * 64, threshold=1, open_s=1.0)
        a.record_failure(now=10.0)
        b.record_failure(now=10.0)
        # same (model, open count) -> identical probe schedule
        assert a._probe_at == b._probe_at
        # jitter stretches the window by +0%..+25%, never shrinks it
        assert 11.0 <= a._probe_at <= 11.25
        # a different model (or a later open) jitters differently
        c = CircuitBreaker("c" * 64, threshold=1, open_s=1.0)
        c.record_failure(now=10.0)
        assert c._probe_at != a._probe_at

    def test_half_open_admits_exactly_one_probe(self):
        b = CircuitBreaker("m" * 64, threshold=1, open_s=1.0)
        b.record_failure(now=0.0)
        probe_at = b._probe_at
        assert not b.allow_dispatch(probe_at - 0.01)
        assert b.allow_dispatch(probe_at)  # the probe
        assert b.state == "half_open"
        assert not b.allow_dispatch(probe_at)  # gate: one in flight
        assert not b.admit(probe_at)

    def test_probe_success_closes_probe_failure_reopens(self):
        report = ServeReport()
        b = CircuitBreaker("m" * 64, threshold=1, open_s=1.0, report=report)
        b.record_failure(now=0.0)
        assert b.allow_dispatch(b._probe_at)
        b.record_failure(now=b._probe_at)  # probe failed
        assert b.state == "open" and b.opens == 2
        assert b.allow_dispatch(b._probe_at)
        b.record_success()  # probe healthy
        assert b.state == "closed" and b.failures == 0
        tag = "m" * 12
        assert report.transitions == [
            f"{tag}:open",
            f"{tag}:half_open",
            f"{tag}:open",
            f"{tag}:half_open",
            f"{tag}:closed",
        ]
        assert report.breaker_opens == 2
        assert report.breaker_half_opens == 2
        assert report.breaker_closes == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("m", threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("m", open_s=0.0)


class TestServeReport:
    def test_bump_mirrors_into_metrics(self):
        before = REGISTRY.counters.get("serve.resilience.breaker_opens", 0)
        report = ServeReport()
        report.bump("breaker_opens", 2)
        assert report.breaker_opens == 2
        after = REGISTRY.counters.get("serve.resilience.breaker_opens", 0)
        assert after - before == 2

    def test_clean_and_to_dict(self):
        report = ServeReport()
        assert report.clean
        report.bump("deadline_dispatch")
        report.bump("deadline_flush", 2)
        assert not report.clean
        doc = report.to_dict()
        assert doc["deadline_expired"] == 3
        assert doc["transitions"] == []
        assert doc["worker"]["retries"] == 0
        assert "deadline_flush=2" in str(report)


class TestDeadlineBoundaries:
    def test_admission_wait_deadline(self, serve_model):
        async def main():
            engine = _engine(
                serve_model, queue_depth=1, admission="wait"
            )
            # dispatcher not running: the first query occupies the only
            # slot, the second parks in the backpressure wait and its
            # 20ms deadline expires there
            first = asyncio.ensure_future(engine.query(Query(target=64)))
            await asyncio.sleep(0)
            with pytest.raises(DeadlineExceededError):
                await engine.query(Query(target=64, deadline_ms=20.0))
            await engine.start()
            await first
            await engine.stop()
            return engine

        engine = asyncio.run(main())
        assert engine.report.deadline_admission == 1
        assert engine.report.deadline_expired == 1
        assert engine.stats.failed == 1 and engine.stats.answered == 1

    def test_dispatch_deadline(self, serve_model):
        async def main():
            engine = _engine(serve_model)
            # enqueue before start, then let the deadline lapse in-queue
            task = asyncio.ensure_future(
                engine.query(Query(target=64, deadline_ms=10.0))
            )
            await asyncio.sleep(0.03)
            await engine.start()
            with pytest.raises(DeadlineExceededError):
                await task
            await engine.stop()
            return engine

        engine = asyncio.run(main())
        assert engine.report.deadline_dispatch == 1
        assert engine.batcher.stats.queries == 0  # never reached a batch

    def test_batch_flush_deadline(self, serve_model):
        async def main():
            # the window never fires on its own; the query is dispatched
            # fresh, parks in the open batch, and ages out before the
            # drain flush runs it
            engine = _engine(serve_model, window_s=30.0)
            await engine.start()
            task = asyncio.ensure_future(
                engine.query(Query(target=64, deadline_ms=10.0))
            )
            fresh = asyncio.ensure_future(engine.query(Query(target=128)))
            await asyncio.sleep(0.03)
            await engine.stop(drain=True)
            with pytest.raises(DeadlineExceededError):
                await task
            return engine, await fresh

        engine, answer = asyncio.run(main())
        assert engine.report.deadline_flush == 1
        assert engine.batcher.stats.expired == 1
        # the expired query's batch mate is still computed and answered
        assert answer.target == 128 and answer.batch_size == 1

    def test_expired_query_never_computed(self, serve_model):
        """Deadline answers carry the boundary name and cost no predict."""

        async def main():
            engine = _engine(serve_model, window_s=30.0)
            await engine.start()
            task = asyncio.ensure_future(
                engine.query(Query(target=64, deadline_ms=5.0))
            )
            await asyncio.sleep(0.02)
            await engine.stop(drain=True)
            try:
                await task
            except DeadlineExceededError as exc:
                return engine, str(exc)
            raise AssertionError("deadline did not fire")

        engine, message = asyncio.run(main())
        assert "batch flush" in message
        assert engine.batcher.stats.batches == 0
        assert engine.stats.answered == 0


class TestBreakerInEngine:
    def test_failures_open_then_probe_recloses(self, serve_model):
        """End-to-end breaker walk: closed -> open -> half_open -> closed."""
        digest = serve_model.digest
        key = f"serve:batch:{digest[:12]}:features"
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    key=key, kind="predict-raise", attempts=(1, 2)
                ),
            )
        )

        async def main():
            engine = _engine(
                serve_model,
                breaker_threshold=2,
                breaker_open_s=0.05,
            )
            await engine.start()
            try:
                # two failing batches open the breaker...
                for _ in range(2):
                    with pytest.raises(ServeError):
                        await engine.query(Query(target=64))
                # ...which sheds the next query at admission, fast
                with pytest.raises(CircuitOpenError):
                    await engine.query(Query(target=64))
                # after the jittered window (<= 0.05 * 1.25) the next
                # query is the half-open probe; the fault plan is spent,
                # so it succeeds and recloses the breaker
                await asyncio.sleep(0.08)
                answer = await engine.query(Query(target=64))
            finally:
                await engine.stop()
            return engine, answer

        with faults.injected(plan):
            engine, answer = asyncio.run(main())
        report = engine.report
        assert report.batch_failures == 2
        assert report.breaker_opens == 1
        assert report.breaker_half_opens == 1
        assert report.breaker_closes == 1
        assert report.breaker_rejected == 1
        tag = digest[:12]
        assert report.transitions == [
            f"{tag}:open", f"{tag}:half_open", f"{tag}:closed"
        ]
        # the recovered answer is still bit-identical to a direct predict
        assert np.array_equal(
            answer.values, serve_model.predict([64]).values[0]
        )


class TestAnswerMemo:
    """The memo answers only what a clean batch computed, and only while
    the model's breaker is closed; deadlines are checked first."""

    def test_failed_batches_store_nothing(self, serve_model):
        from repro.util.errors import TaskCrashError

        tag = serve_model.digest[:12]
        raise_once = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    key=f"serve:batch:{tag}:features",
                    kind="predict-raise", attempts=(1,),
                ),
            )
        )
        # every replay attempt of one call: the call fails for good
        crash = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    key=f"serve:replay:{tag}:128", kind="crash",
                    attempts=(1, 2, 3),
                ),
            )
        )

        async def main():
            engine = _engine(serve_model)
            await engine.start()
            try:
                with faults.injected(raise_once), pytest.raises(ServeError):
                    await engine.query(Query(target=64))
                await engine.query(Query(target=64))  # a batch again
                with faults.injected(crash), pytest.raises(TaskCrashError):
                    await engine.query(Query(target=128, kind="runtime"))
                # the crashed target kept neither its matrix nor a runtime
                await engine.query(Query(target=128))
                replayed = await engine.query(
                    Query(target=128, kind="runtime")
                )
                memoized = await engine.query(
                    Query(target=128, kind="runtime")
                )
            finally:
                await engine.stop()
            return engine, replayed, memoized

        engine, replayed, memoized = asyncio.run(main())
        assert engine.batcher.stats.batches == 5
        assert engine.stats.memo_hits == 1
        assert memoized.runtime_s == replayed.runtime_s
        assert engine.report.batch_failures == 1

    def test_half_open_probe_runs_a_batch_for_a_memoized_target(
        self, serve_model
    ):
        tag = serve_model.digest[:12]
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    key=f"serve:batch:{tag}:features",
                    kind="predict-raise", attempts=(2, 3),
                ),
            )
        )

        async def main():
            engine = _engine(
                serve_model, breaker_threshold=2, breaker_open_s=0.05
            )
            await engine.start()
            try:
                await engine.query(Query(target=64))  # memoized
                for _ in range(2):  # two failing batches open the breaker
                    with pytest.raises(ServeError):
                        await engine.query(Query(target=128))
                await asyncio.sleep(0.08)
                # the probe is a batch, memo or not, and closes the breaker
                probe = await engine.query(Query(target=64))
                batches = engine.batcher.stats.batches
                hit = await engine.query(Query(target=64))
            finally:
                await engine.stop()
            return engine, probe, hit, batches

        with faults.injected(plan):
            engine, probe, hit, batches = asyncio.run(main())
        assert batches == 4
        assert engine.batcher.stats.batches == 4
        assert engine.stats.memo_hits == 1
        assert engine.report.transitions == [
            f"{tag}:open", f"{tag}:half_open", f"{tag}:closed"
        ]
        assert probe.values.tobytes() == hit.values.tobytes()

    def test_lapsed_deadline_is_never_answered_from_the_memo(
        self, serve_model
    ):
        async def main():
            engine = _engine(serve_model)
            await engine.start()
            await engine.query(Query(target=64))  # memoized
            await engine.stop()
            # the deadline lapses in the tenant queue, before dispatch
            task = asyncio.ensure_future(
                engine.query(Query(target=64, deadline_ms=10.0))
            )
            await asyncio.sleep(0.03)
            await engine.start()
            with pytest.raises(DeadlineExceededError, match="dispatch"):
                await task
            await engine.stop()
            return engine

        engine = asyncio.run(main())
        assert engine.report.deadline_dispatch == 1
        assert engine.stats.memo_hits == 0
        assert engine.stats.failed == 1 and engine.stats.answered == 1


class TestOffload:
    def test_large_feature_batches_offload(self, serve_model):
        async def main():
            engine = _engine(
                serve_model, offload_batch_size=2, max_batch=8
            )
            await engine.start()
            answers = await asyncio.gather(
                *(engine.query(Query(target=64)) for _ in range(4))
            )
            await engine.stop()
            return engine, answers

        engine, answers = asyncio.run(main())
        assert engine.report.offloads >= 1
        expected = serve_model.predict([64]).values[0]
        for a in answers:
            assert np.array_equal(a.values, expected)

    def test_runtime_replay_offloads_and_matches_sequential(self, serve_model):
        from repro.apps.registry import get_app
        from repro.pipeline.predict import predict_runtime

        async def main():
            engine = _engine(serve_model)
            await engine.start()
            answer = await engine.query(Query(target=64, kind="runtime"))
            await engine.stop()
            return engine, answer

        engine, answer = asyncio.run(main())
        assert engine.report.offloads == 1
        assert engine.report.worker.clean
        # offloaded replay is bit-identical to the sequential path
        sweep = serve_model.predict([64])
        trace = serve_model.synthesize(64, prediction=sweep)
        expected = predict_runtime(
            get_app("jacobi"), 64, trace, serve_model.profile
        ).runtime_s
        assert answer.runtime_s == expected

    def test_runtime_replays_reuse_the_recorded_job(
        self, serve_model, monkeypatch
    ):
        """Each target's job is recorded once and replayed by every later
        answer; a target whose recording fails fails on its own."""
        from repro.apps.jacobi import JacobiProxy

        record = JacobiProxy.build_job
        recorded = []

        def build_job(app, n_ranks):
            recorded.append(n_ranks)
            if n_ranks == 96:
                raise ValueError("cannot record 96 ranks")
            return record(app, n_ranks)

        monkeypatch.setattr(JacobiProxy, "build_job", build_job)

        async def main():
            engine = _engine(serve_model)
            await engine.start()
            answers = [
                await engine.query(Query(target=t, kind="runtime"))
                for t in (64, 128, 64, 64)
            ]
            with pytest.raises(ValueError, match="cannot record 96"):
                await engine.query(Query(target=96, kind="runtime"))
            await engine.stop()
            return answers

        answers = asyncio.run(main())
        assert recorded[:2] == [64, 128]
        assert set(recorded[2:]) == {96}  # never cached, raised in the task
        assert answers[0].runtime_s == answers[2].runtime_s == answers[3].runtime_s

    def test_recorded_jobs_shared_by_racing_threads(self, serve_model):
        """Replay threads share the recorded jobs: under a tiny switch
        interval every call still gets its own target's job, and the
        table never holds more than its bound."""
        import sys
        from types import SimpleNamespace

        from repro.serve.engine import RUNTIME_JOBS

        engine = _engine(serve_model)
        app = SimpleNamespace(build_job=lambda n: SimpleNamespace(n_ranks=n))
        errors, sizes = [], []

        def replay_thread(seed):
            try:
                for i in range(300):
                    target = (seed * 7 + i) % (2 * RUNTIME_JOBS) + 1
                    job = engine._runtime_job("model", app, target)
                    assert job.n_ranks == target
                    with engine._jobs_lock:
                        sizes.append(len(engine._jobs))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=replay_thread, args=(k,))
                for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(sizes) == 8 * 300 and max(sizes) == RUNTIME_JOBS

    def test_worker_crash_during_replay_fails_one_query(self, serve_model):
        """An exhausted-retry replay fails its own query, not the batch."""
        digest = serve_model.digest
        key = f"serve:replay:{digest[:12]}:64"
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    key=key, kind="crash", attempts=(1, 2, 3, 4, 5)
                ),
            )
        )

        async def main():
            engine = _engine(serve_model, max_batch=4, window_s=0.02)
            await engine.start()
            doomed = asyncio.ensure_future(
                engine.query(Query(target=64, kind="runtime"))
            )
            healthy = asyncio.ensure_future(
                engine.query(Query(target=128, kind="runtime"))
            )
            answer = await healthy
            with pytest.raises(Exception) as err:
                await doomed
            await engine.stop()
            return engine, answer, err.value

        with faults.injected(plan):
            engine, answer, exc = asyncio.run(main())
        # the co-batched healthy target is answered normally
        assert answer.target == 128 and answer.runtime_s > 0
        # the crashed target's retries are in the worker report
        assert not engine.report.worker.clean
        assert engine.report.worker.crashes >= 1
        assert engine.report.worker.retries >= 1
        assert any("collected failure" in e for e in engine.report.worker.events)


class TestRegistryGC:
    def test_gc_evicts_lru_until_under_budget(self, tmp_path, serve_model):
        probe = ModelRegistry(tmp_path / "probe")
        probe.put(serve_model)
        entry_mb = probe.disk_usage_bytes() / (1024 * 1024)
        assert entry_mb > 0

        root = tmp_path / "models"
        reg = ModelRegistry(root, budget_mb=entry_mb * 1.5)
        a = serve_model
        b = _variant(serve_model, code_version="build-b")
        reg.put(a)
        time.sleep(0.01)  # atime ordering must be unambiguous
        reg.put(b)
        # 2 entries > 1.5-entry budget: the older store (a) is evicted,
        # the just-stored digest (b) is protected
        assert reg.stats.gc_evictions == 1
        assert reg.digests() == [b.digest] or set(reg.digests()) == {
            b.digest
        }
        assert reg.disk_usage_bytes() <= entry_mb * 1.5 * 1024 * 1024
        assert REGISTRY.gauges["serve.registry.disk_mb"] <= entry_mb * 1.5

    def test_gc_order_is_access_order_not_store_order(
        self, tmp_path, serve_model
    ):
        probe = ModelRegistry(tmp_path / "probe")
        probe.put(serve_model)
        entry_mb = probe.disk_usage_bytes() / (1024 * 1024)

        reg = ModelRegistry(
            tmp_path / "models", budget_mb=entry_mb * 2.5, mem_entries=1
        )
        a = serve_model
        b = _variant(serve_model, code_version="build-b")
        c = _variant(serve_model, code_version="build-c")
        reg.put(a)
        time.sleep(0.01)
        reg.put(b)
        time.sleep(0.01)
        reg.clear_memory()
        assert reg.get(a.spec) is not None  # disk hit refreshes a's atime
        time.sleep(0.01)
        reg.put(c)  # over budget: evict LRU = b, not the older-stored a
        assert reg.stats.gc_evictions == 1
        assert set(reg.digests()) == {a.digest, c.digest}

    def test_quarantined_entries_do_not_count_against_budget(
        self, tmp_path, serve_model
    ):
        reg = ModelRegistry(tmp_path / "models")
        reg.put(serve_model)
        live = reg.disk_usage_bytes()
        reg.clear_memory()
        entry = reg.store.path(serve_model.digest)
        (entry / "meta.json").write_text("{ broken")
        assert reg.get(serve_model.spec) is None
        assert reg.disk_usage_bytes() == 0 < live


class TestCorruptModelEntryFault:
    @pytest.mark.parametrize("feature", sorted(FAULT_FILES))
    def test_injected_corruption_trips_quarantine(
        self, tmp_path, serve_model, feature
    ):
        digest = serve_model.digest
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    key=digest, kind="corrupt-model-entry", feature=feature
                ),
            )
        )
        reg = ModelRegistry(tmp_path / "models")
        with faults.injected(plan):
            reg.put(serve_model)
        reg.clear_memory()
        # the truncated artifact fails verification -> quarantine + miss
        assert reg.get(serve_model.spec) is None
        assert reg.stats.quarantined == 1
        assert reg.quarantined_digests() == [digest]

    def test_quarantine_then_get_or_fit_refits(self, tmp_path, serve_model):
        import repro.serve.registry as registry_mod

        digest = serve_model.digest
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    key=digest, kind="corrupt-model-entry", feature="matrix"
                ),
            )
        )
        reg = ModelRegistry(tmp_path / "models")
        with faults.injected(plan):
            reg.put(serve_model)
        reg.clear_memory()

        fitted = []
        original = registry_mod.fit_model

        def fake_fit(spec, *, config=None, report=None):
            fitted.append(spec)
            return serve_model

        registry_mod.fit_model = fake_fit
        try:
            model = reg.get_or_fit(serve_model.spec)
        finally:
            registry_mod.fit_model = original
        assert model.digest == digest
        assert fitted == [serve_model.spec]
        assert reg.stats.quarantined == 1 and reg.stats.fits == 1
        # the refit entry is healthy: a cold get loads it from disk, and
        # it carries the machine profile again
        reg.clear_memory()
        loaded = reg.get(serve_model.spec)
        assert loaded is not None
        assert (reg.store.path(digest) / MACHINE_FILE).is_file()
        np.testing.assert_array_equal(
            loaded.profile.surface.coefficients,
            serve_model.profile.surface.coefficients,
        )
        assert reg.stats.quarantined == 1  # no second quarantine


class TestFitLock:
    def test_waiter_loads_winners_artifact_instead_of_refitting(
        self, tmp_path, serve_model
    ):
        """Second fitter polls the lock and loads, never fits."""
        import repro.serve.registry as registry_mod

        root = tmp_path / "models"
        reg = ModelRegistry(root, lock_poll_s=0.01)
        digest = serve_model.digest
        lock = reg.store.lock_path(digest)
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text("9999 0\n")  # another process holds the fit lock

        original = registry_mod.fit_model

        def forbidden_fit(spec, *, config=None, report=None):
            raise AssertionError("waiter must load, not refit")

        result = {}

        def waiter():
            result["model"] = reg.get_or_fit(serve_model.spec)

        registry_mod.fit_model = forbidden_fit
        try:
            t = threading.Thread(target=waiter)
            t.start()
            time.sleep(0.05)  # the waiter is polling by now
            writer = ModelRegistry(root)  # "the other process"
            writer.put(serve_model)
            os.remove(lock)
            t.join(timeout=10.0)
            assert not t.is_alive()
        finally:
            registry_mod.fit_model = original
        assert result["model"].digest == digest
        assert reg.stats.lock_waits >= 1
        assert reg.stats.fits == 0

    def test_stale_lock_is_taken_over(self, tmp_path, serve_model):
        reg = ModelRegistry(tmp_path / "models", lock_stale_s=30.0)
        digest = serve_model.digest
        lock = reg.store.lock_path(digest)
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text("dead 0\n")
        old = time.time() - 120.0
        os.utime(lock, (old, old))  # the fitter crashed two minutes ago
        assert not reg.store.try_lock(digest)  # takeover removes the corpse...
        assert reg.stats.lock_takeovers == 1
        assert reg.store.try_lock(digest)  # ...so the next poll acquires
        reg.store.release(digest)

    def test_fresh_lock_is_respected(self, tmp_path, serve_model):
        reg = ModelRegistry(tmp_path / "models", lock_stale_s=30.0)
        digest = serve_model.digest
        assert reg.store.try_lock(digest)
        assert not reg.store.try_lock(digest)
        assert reg.stats.lock_takeovers == 0
        reg.store.release(digest)
        assert reg.store.try_lock(digest)
        reg.store.release(digest)
