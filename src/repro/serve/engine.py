"""The async query engine: admission, fair queueing, batched answers.

Prediction-as-a-service front-end over the model registry.  A
:class:`QueryEngine` admits each query synchronously
(:meth:`~QueryEngine.submit` returns a future, :meth:`~QueryEngine.query`
awaits it) and answers it through three stages:

1. **Admission** — each tenant owns a bounded FIFO queue.  When a
   tenant's queue is full, ``admission="wait"`` applies backpressure
   (the query waits in its tenant's line until the dispatcher drains a
   slot) while ``admission="reject"`` fails fast with
   :class:`~repro.util.errors.AdmissionError` — the load-shedding
   contract clients can retry against.  A query whose (model digest,
   target) was answered before is answered here from the engine's
   answer memo, when its tenant has nothing queued and its model's
   breaker is closed: an answer is pure in that key, so no queue,
   batch, window or replay runs.
2. **Fair dispatch** — a single dispatcher task round-robins across
   tenant queues, taking at most one query per tenant per cycle, so a
   tenant flooding its queue cannot starve a light tenant.  A memo hit
   that had to queue is answered here, under the same breaker rule.
3. **Micro-batched execution** — every other dispatched query enters
   the :class:`~repro.serve.batcher.MicroBatcher` keyed by (model
   digest, query kind); compatible queries coalesce into one
   ``predict_many`` array pass and fan back out.  Batched answers are
   bit-identical to what a sequential per-query ``predict_many`` would
   return — ``predict_many`` computes each target column independently,
   and the bit-identity tests hold the engine to it.

``kind="features"`` answers with the synthesized (n_pairs, n_features)
matrix of the target.  ``kind="runtime"`` additionally synthesizes the
target trace and replays it through
:func:`~repro.pipeline.predict.predict_runtime` against the model's own
machine profile (:attr:`~repro.serve.registry.FittedModel.profile`);
prediction, synthesis and replay all amortize per *distinct* target in
the batch.

A batch's kind alone decides where it runs.  A ``features`` batch runs
on the event loop at flush, so its answers are memoized before the
dispatcher hands out the next query: a burst over a few targets runs
one batch and answers the rest from the memo.  A ``runtime`` batch runs
as one worker-thread call (predict, synthesize, replay), so the loop
keeps serving other tenants while it replays.

Fault discipline (see :mod:`repro.serve.resilience`):

- a query may carry ``deadline_ms``; an expired query is answered with
  :class:`~repro.util.errors.DeadlineExceededError` at whichever of
  the three boundaries — admission wait, dispatch, batch flush —
  catches it first, and is never computed nor left hanging;
- each model gets a :class:`~repro.serve.resilience.CircuitBreaker`:
  after ``breaker_threshold`` consecutive batch failures its queries
  are shed fast with :class:`~repro.util.errors.CircuitOpenError`
  until a half-open probe succeeds;
- the serve fault plan is consulted on the loop at flush, for both
  kinds, so a key's batches are numbered in flush order;
- runtime replays go through
  :func:`~repro.exec.resilience.run_tasks_resilient` (serially, in the
  batch's worker thread), so a crashed or failing replay is retried
  and then fails only its own target's queries;
- every recovery event lands in the engine's
  :class:`~repro.serve.resilience.ServeReport` (mirrored to
  ``serve.resilience.*`` metrics and the run manifest).
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter, sleep
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.registry import get_app
from repro.exec import faults
from repro.exec.resilience import run_tasks_resilient
from repro.obs.metrics import REGISTRY, CounterSet, timer_summary
from repro.obs.telemetry import StreamingHistogram
from repro.obs.trace import span
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import FittedModel, ModelRegistry
from repro.serve.resilience import (
    BREAKER_OPEN_S,
    BREAKER_THRESHOLD,
    CircuitBreaker,
    ServeReport,
    replay_runtime_task,
)
from repro.util.errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineExceededError,
    ServeError,
)

ADMISSION_POLICIES = ("wait", "reject")
QUERY_KINDS = ("features", "runtime")
#: bytes of answer matrices an engine keeps memoized (least recently
#: used dropped first)
ANSWER_MEMO_BYTES = 32 * 2**20


@dataclass(frozen=True)
class Query:
    """One prediction request.

    ``model`` is a registry digest (``None`` = the engine's default
    model).  ``target`` is the core count to synthesize.  Queries with
    the same (model, kind) are batchable; anything else never co-batches.
    ``deadline_ms`` bounds admission-to-answer wall clock: past it the
    engine answers :class:`~repro.util.errors.DeadlineExceededError`
    instead of computing.
    """

    target: int
    model: Optional[str] = None
    tenant: str = "default"
    kind: str = "features"
    deadline_ms: Optional[float] = None

    def __post_init__(self):
        if int(self.target) <= 0:
            raise ServeError(
                f"query target must be positive, got {self.target}",
                stage="serve",
            )
        if self.kind not in QUERY_KINDS:
            raise ServeError(
                f"unknown query kind {self.kind!r}; known: {QUERY_KINDS}",
                stage="serve",
            )
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ServeError(
                f"query deadline must be positive, got {self.deadline_ms}",
                stage="serve",
            )


@dataclass
class Answer:
    """One resolved query: the synthesized features plus serving facts."""

    target: int
    kind: str
    model: str
    tenant: str
    #: (n_pairs, n_features) synthesized features — a read-only array,
    #: shared by every query for the same target in the same batch and
    #: by every later answer from the memo
    values: np.ndarray
    runtime_s: Optional[float]  #: predicted runtime (kind="runtime" only)
    #: how many queries shared this answer's array pass (1 for an answer
    #: from the memo, which ran none)
    batch_size: int
    latency_s: float  #: admission-to-answer wall clock


@dataclass
class ServeConfig:
    """Engine knobs: batching window, queue bounds, admission policy,
    circuit breaker."""

    max_batch: int = 64
    window_s: float = 0.002
    queue_depth: int = 256
    admission: str = "wait"
    breaker_threshold: int = BREAKER_THRESHOLD
    breaker_open_s: float = BREAKER_OPEN_S

    def __post_init__(self):
        if self.admission not in ADMISSION_POLICIES:
            raise ServeError(
                f"unknown admission policy {self.admission!r}; "
                f"known: {ADMISSION_POLICIES}",
                stage="serve",
            )
        if self.queue_depth < 1:
            raise ServeError(
                f"queue depth must be >= 1, got {self.queue_depth}",
                stage="serve",
            )
        if self.breaker_threshold < 1:
            raise ServeError(
                f"breaker threshold must be >= 1, got "
                f"{self.breaker_threshold}",
                stage="serve",
            )
        if not self.breaker_open_s > 0:
            raise ServeError(
                f"breaker open window must be positive, got "
                f"{self.breaker_open_s}",
                stage="serve",
            )
        # max_batch / window_s are validated by MicroBatcher


@dataclass
class EngineStats(CounterSet):
    """Per-engine tallies (metrics land under ``serve.*`` too)."""

    PREFIX = "serve"

    queries: int = 0
    answered: int = 0
    failed: int = 0
    rejected: int = 0
    backpressure_waits: int = 0
    memo_hits: int = 0  #: answered from the memo (also in ``answered``)


class QueryEngine:
    """Asyncio prediction server over a :class:`ModelRegistry`.

    Usage::

        engine = QueryEngine(registry, default_model=digest)
        await engine.start()
        answer = await engine.query(Query(target=4096))
        await engine.stop()

    Queries may be enqueued before :meth:`start`; they are dispatched
    (and memo hits answered) once the engine runs.  :meth:`stop` drains
    by default: queued and in-flight queries are answered (open batches
    are deadline-flushed immediately) before the dispatcher shuts down.
    :meth:`stop_admission` closes the front door first — the graceful
    drain sequence the CLI runs on SIGTERM/SIGINT.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        default_model: Optional[str] = None,
        config: Optional[ServeConfig] = None,
    ):
        self.registry = registry
        self.default_model = default_model
        self.config = config or ServeConfig()
        self.batcher = MicroBatcher(
            self._run_batch,
            max_batch=self.config.max_batch,
            window_s=self.config.window_s,
            on_expire=self._expire_in_batch,
        )
        self.stats = EngineStats()
        self.report = ServeReport()
        self.draining = False
        #: an attached TelemetrySampler (slow-query hook); None = no-op
        self.telemetry = None
        self._queues: Dict[str, Deque[tuple]] = {}
        # tenant -> queries waiting for a slot in its full queue, in
        # arrival order: [query, future, t0, expiry, deadline timer]
        self._waiting: Dict[str, Deque[list]] = {}
        self._latencies = StreamingHistogram()
        self._inflight_by_tenant: Dict[str, int] = {}
        # metric names are interned per (family, tenant): building one
        # f-string per query raises the allocation rate enough to drag
        # GC pauses into the dispatch hot loop
        self._metric_names: Dict[tuple, str] = {}
        # (model digest, target) -> [matrix, runtime_s or None]: every
        # successful answer, kept until ANSWER_MEMO_BYTES of matrices
        # push it out; only the event loop touches it
        self._memo: "OrderedDict[Tuple[str, int], list]" = OrderedDict()
        self._memo_bytes = 0
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._inflight: set = set()
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None

    # -- lifecycle ------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._dispatcher is not None and not self._dispatcher.done()

    async def start(self) -> None:
        if self.started:
            return
        loop = asyncio.get_running_loop()
        if self._wake is None:
            self._wake = asyncio.Event()
        if any(self._queues.values()):
            self._wake.set()
        self._dispatcher = loop.create_task(
            self._dispatch_loop(), name="serve-dispatcher"
        )

    def stop_admission(self) -> None:
        """Close the front door: new queries fail fast with AdmissionError.

        In-queue and in-flight queries are unaffected; pair with
        :meth:`stop` to drain them (the SIGTERM sequence).
        """
        self.draining = True

    async def stop(self, *, drain: bool = True) -> None:
        if drain:
            while any(self._queues.values()) or self._inflight:
                if self._wake is not None:
                    self._wake.set()
                await asyncio.sleep(0)
                if not any(self._queues.values()):
                    # every remaining query is parked in an open batch or
                    # an offloaded execution — flush batches immediately
                    # and park until the in-flight answers land
                    self.batcher.flush_all()
                    pending = [f for f in self._inflight if not f.done()]
                    if pending:
                        await asyncio.wait(pending, timeout=0.1)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None

    # -- query path -----------------------------------------------------

    def _breaker(self, digest: str) -> CircuitBreaker:
        breaker = self._breakers.get(digest)
        if breaker is None:
            breaker = CircuitBreaker(
                digest,
                threshold=self.config.breaker_threshold,
                open_s=self.config.breaker_open_s,
                report=self.report,
            )
            self._breakers[digest] = breaker
        return breaker

    def _metric_name(self, family: str, tenant: str) -> str:
        key = (family, tenant)
        name = self._metric_names.get(key)
        if name is None:
            name = self._metric_names[key] = f"{family}.{tenant}"
        return name

    def _tenant_inc(self, name: str, tenant: str) -> None:
        key = (name, tenant)
        metric = self._metric_names.get(key)
        if metric is None:
            metric = self._metric_names[key] = (
                f"serve.tenant.{name}.{tenant}"
            )
        REGISTRY.inc(metric)

    def _queue_depth_set(self, tenant: str, depth: int) -> None:
        REGISTRY.set_gauge(
            self._metric_name("serve.queue_depth", tenant), float(depth)
        )

    def _track_inflight(self, tenant: str, delta: int) -> None:
        n = self._inflight_by_tenant.get(tenant, 0) + delta
        self._inflight_by_tenant[tenant] = n
        REGISTRY.set_gauge(
            self._metric_name("serve.inflight", tenant), float(n)
        )

    def breaker_states(self) -> Dict[str, str]:
        """Current per-model breaker states, keyed by short digest."""
        return {
            digest[:12]: breaker.state
            for digest, breaker in sorted(self._breakers.items())
        }

    def _deadline_error(self, q: Query, boundary: str) -> DeadlineExceededError:
        return DeadlineExceededError(
            f"deadline of {q.deadline_ms:g}ms expired at {boundary}",
            stage="serve",
            task_key=f"serve:{q.tenant}",
        )

    def _expire_in_batch(self, q: Query) -> DeadlineExceededError:
        """Batcher callback: a parked query's deadline passed before its
        batch ran (the batch-flush boundary)."""
        self.report.bump("deadline_flush")
        return self._deadline_error(q, "batch flush")

    def submit(self, q: Query) -> asyncio.Future:
        """Admit one query; the returned future resolves with its
        :class:`Answer` or fails with its typed error.

        Synchronous, so a caller admits a query and acts on the outcome
        in one event-loop turn.  While the engine runs, a memo hit whose
        tenant has nothing queued and whose model's breaker is closed
        is answered here, and the future comes back done; every other
        admitted query is queued for the dispatcher.  A refused query
        (draining, unknown model, open breaker, full queue under
        ``admission="reject"``) comes back failed.
        """
        fut = asyncio.get_running_loop().create_future()
        try:
            self._admit(q, fut)
        except ServeError as exc:
            fut.set_exception(exc)
        return fut

    async def query(self, q: Query) -> Answer:
        """Submit one query; resolves with its :class:`Answer`."""
        return await self.submit(q)

    def _admit(self, q: Query, fut: asyncio.Future) -> None:
        digest = q.model or self.default_model
        if digest is None:
            raise ServeError(
                "query names no model and the engine has no default",
                stage="serve",
            )
        if digest not in self.registry:
            raise ServeError(
                f"model {digest[:12]} is not in the registry",
                stage="serve",
                task_key=f"serve:{q.tenant}",
            )
        if q.model != digest:
            q = replace(q, model=digest)
        t0 = perf_counter()
        # counted before any refusal, so that answered == queries -
        # failed - rejected holds while draining too
        self.stats.bump("queries")
        self._tenant_inc("queries", q.tenant)
        if self.draining:
            self.stats.bump("rejected")
            self._tenant_inc("rejected", q.tenant)
            raise AdmissionError(
                "engine is draining; admission is closed",
                stage="serve",
                task_key=f"serve:{q.tenant}",
            )
        expiry = (
            t0 + q.deadline_ms / 1000.0 if q.deadline_ms is not None else None
        )
        breaker = self._breaker(digest)
        if not breaker.admit(t0):
            self.report.bump("breaker_rejected")
            self.stats.bump("failed")
            self._tenant_inc("failed", q.tenant)
            raise CircuitOpenError(
                f"model {digest[:12]} breaker is open; query shed",
                stage="serve",
                task_key=f"serve:{q.tenant}",
            )
        dq = self._queues.setdefault(q.tenant, deque())
        # a fresh deadline cannot have lapsed, and an empty queue means
        # answering now overtakes none of the tenant's queries
        if not dq and self.started and self._memo_answer(q, fut, t0, breaker):
            return
        if len(dq) < self.config.queue_depth:
            dq.append((q, fut, t0, expiry))
            self._queue_depth_set(q.tenant, len(dq))
            if self._wake is None:
                self._wake = asyncio.Event()
            self._wake.set()
            return
        if self.config.admission == "reject":
            self.stats.bump("rejected")
            self._tenant_inc("rejected", q.tenant)
            raise AdmissionError(
                f"tenant {q.tenant!r} queue is full "
                f"({self.config.queue_depth} queries)",
                stage="serve",
                task_key=f"serve:{q.tenant}",
            )
        self.stats.bump("backpressure_waits")
        self._tenant_inc("waits", q.tenant)
        waiting = self._waiting.setdefault(q.tenant, deque())
        entry = [q, fut, t0, expiry, None]
        if expiry is not None:
            entry[4] = asyncio.get_running_loop().call_later(
                q.deadline_ms / 1000.0, self._wait_expired, waiting, entry
            )
        waiting.append(entry)

    def _wait_expired(self, waiting: Deque[list], entry: list) -> None:
        """A waiting query's deadline passed before a slot freed."""
        waiting.remove(entry)
        q, fut = entry[0], entry[1]
        if fut.done():  # its caller gave up
            return
        self.report.bump("deadline_admission")
        self.stats.bump("failed")
        self._tenant_inc("failed", q.tenant)
        fut.set_exception(self._deadline_error(q, "admission wait"))

    def _fill(self, tenant: str, dq: Deque[tuple]) -> None:
        """Move waiting queries into the tenant's queue while it has room."""
        waiting = self._waiting.get(tenant)
        while waiting and len(dq) < self.config.queue_depth:
            q, fut, t0, expiry, timer = waiting.popleft()
            if timer is not None:
                timer.cancel()
            if not fut.done():
                dq.append((q, fut, t0, expiry))

    # -- dispatch -------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            # one span per wake-to-drain dispatch cycle: with --trace-out
            # the serve loop's dispatch work shows up between the
            # serve.flush spans instead of being invisible loop time
            with span("serve.dispatch"):
                progress = True
                while progress:
                    progress = False
                    # one query per tenant per cycle: round-robin fairness
                    for tenant in list(self._queues):
                        dq = self._queues[tenant]
                        if not dq:
                            continue
                        progress = True
                        q, fut, t0, expiry = dq.popleft()
                        self._fill(tenant, dq)
                        self._queue_depth_set(tenant, len(dq))
                        now = perf_counter()
                        REGISTRY.observe("serve.queue_wait_s", now - t0)
                        if expiry is not None and now >= expiry:
                            # the query aged out in its tenant queue
                            self.report.bump("deadline_dispatch")
                            self.stats.bump("failed")
                            self._tenant_inc("failed", tenant)
                            if not fut.done():
                                fut.set_exception(
                                    self._deadline_error(q, "dispatch")
                                )
                            continue
                        breaker = self._breaker(q.model)
                        if self._memo_answer(q, fut, t0, breaker):
                            continue
                        if not breaker.allow_dispatch(now):
                            self.report.bump("breaker_rejected")
                            self.stats.bump("failed")
                            self._tenant_inc("failed", tenant)
                            if not fut.done():
                                fut.set_exception(
                                    CircuitOpenError(
                                        f"model {q.model[:12]} breaker is "
                                        f"open; query shed",
                                        stage="serve",
                                        task_key=f"serve:{tenant}",
                                    )
                                )
                            continue
                        # no task per query: the batcher future's done
                        # callback finishes the answer — one object on the
                        # hot path instead of a scheduled coroutine
                        self._track_inflight(tenant, +1)
                        bfut = self.batcher.enqueue(
                            (q.model, q.kind), q, expiry
                        )
                        self._inflight.add(bfut)
                        bfut.add_done_callback(
                            partial(self._finish_one, q, fut, t0)
                        )

    def _finish_one(
        self,
        q: Query,
        fut: asyncio.Future,
        t0: float,
        bfut: asyncio.Future,
    ) -> None:
        """Resolve one caller future from its finished batch slice."""
        self._inflight.discard(bfut)
        self._track_inflight(q.tenant, -1)
        if bfut.cancelled():
            if not fut.done():
                fut.cancel()
            return
        exc = bfut.exception()
        if exc is not None:
            self.stats.bump("failed")
            self._tenant_inc("failed", q.tenant)
            if not fut.done():
                fut.set_exception(exc)
            return
        self._answer(q, fut, t0, **bfut.result())

    def _answer(
        self,
        q: Query,
        fut: asyncio.Future,
        t0: float,
        values: np.ndarray,
        runtime_s: Optional[float],
        batch_size: int,
    ) -> None:
        """Count one answered query and resolve its caller future."""
        latency = perf_counter() - t0
        self._latencies.observe(latency)
        REGISTRY.observe("serve.latency_s", latency)
        self.stats.bump("answered")
        self._tenant_inc("answered", q.tenant)
        if self.telemetry is not None:
            self.telemetry.record_query(q, latency)
        if not fut.done():
            fut.set_result(
                Answer(
                    target=q.target,
                    kind=q.kind,
                    model=q.model,
                    tenant=q.tenant,
                    values=values,
                    runtime_s=runtime_s,
                    batch_size=batch_size,
                    latency_s=latency,
                )
            )

    # -- answer memo ----------------------------------------------------

    def _memo_answer(
        self, q: Query, fut: asyncio.Future, t0: float, breaker: CircuitBreaker
    ) -> bool:
        """Answer ``q`` from the memo if its model's breaker is closed and
        the memo holds its answer (a ``kind="runtime"`` query needs a
        replayed runtime); False when it must take the batch path."""
        if breaker.state != "closed":
            return False
        key = (q.model, int(q.target))
        entry = self._memo.get(key)
        if entry is None or (q.kind == "runtime" and entry[1] is None):
            return False
        self._memo.move_to_end(key)
        self.stats.bump("memo_hits")
        runtime_s = entry[1] if q.kind == "runtime" else None
        self._answer(q, fut, t0, entry[0], runtime_s, batch_size=1)
        return True

    # -- batch execution ------------------------------------------------

    def _model(self, digest: str) -> FittedModel:
        model = self.registry.get(digest)
        if model is None:
            raise ServeError(
                f"model {digest[:12]} vanished from the registry",
                stage="serve",
            )
        return model

    def _run_batch(self, key: Tuple[str, str], queries: List[Query]):
        """Run one flushed batch: a ``features`` batch on the loop, a
        ``runtime`` batch as a coroutine the batcher schedules."""
        digest, kind = key
        breaker = self._breaker(digest)
        targets = sorted({int(q.target) for q in queries})
        try:
            slow_s = faults.serve_fault(f"serve:batch:{digest[:12]}:{kind}")
            if slow_s:
                self.report.bump("slow_predicts")
            model = self._model(digest)
            if kind == "runtime":
                return self._run_replays(
                    digest, model, targets, queries, breaker, slow_s
                )
            if slow_s:
                sleep(slow_s)
            sweep = model.predict(targets)
            results = self._answers(digest, queries, sweep, targets, {}, {})
        except Exception:
            self.report.bump("batch_failures")
            breaker.record_failure(perf_counter())
            raise
        breaker.record_success()
        return results

    async def _run_replays(
        self,
        digest: str,
        model: FittedModel,
        targets: List[int],
        queries: List[Query],
        breaker: CircuitBreaker,
        slow_s: float,
    ) -> List[Any]:
        """A ``runtime`` batch: predict, synthesize and replay in one
        worker-thread call; each replay records its own job."""
        self.report.bump("offloads")

        def work():
            if slow_s:
                sleep(slow_s)
            sweep = model.predict(targets)
            app, machine = get_app(model.spec.app), model.profile
            tasks = [
                (app, machine, t, model.synthesize(t, prediction=sweep))
                for t in targets
            ]
            values, _ = run_tasks_resilient(
                replay_runtime_task,
                tasks,
                keys=[f"serve:replay:{digest[:12]}:{t}" for t in targets],
                workers=0,
                report=self.report.worker,
                stage="serve",
                collect_errors=True,
            )
            return sweep, values

        loop = asyncio.get_running_loop()
        try:
            sweep, values = await loop.run_in_executor(None, work)
        except Exception:
            self.report.bump("batch_failures")
            breaker.record_failure(perf_counter())
            raise
        runtimes: Dict[int, float] = {}
        failures: Dict[int, BaseException] = {}
        for target, value in zip(targets, values):
            if isinstance(value, BaseException):
                failures[target] = value
            else:
                runtimes[target] = float(value)
        # a per-item failure (one target's replay died for good) counts
        # against the model without failing its batch mates
        if failures:
            breaker.record_failure(perf_counter())
        else:
            breaker.record_success()
        return self._answers(digest, queries, sweep, targets, runtimes, failures)

    def _answers(
        self,
        digest: str,
        queries: List[Query],
        sweep,
        targets: List[int],
        runtimes: Dict[int, float],
        failures: Dict[int, BaseException],
    ) -> List[Any]:
        """Memoize a batch's answers and fan them out, one result per
        query; a failed target keeps nothing and fails its queries."""
        # one detached read-only matrix per *distinct* target, shared by
        # every query for it: copying per query would dominate the
        # amortized batch cost, and a view would pin the whole sweep
        matrices: Dict[int, np.ndarray] = {}
        for target in targets:
            matrix = sweep.matrix_for(target).copy()
            matrix.setflags(write=False)
            matrices[target] = matrix
            if target in failures:
                continue
            key = (digest, target)
            entry = self._memo.get(key)
            if entry is None:
                entry = self._memo[key] = [matrix, None]
                self._memo_bytes += matrix.nbytes
            else:
                self._memo.move_to_end(key)
            if target in runtimes:
                entry[1] = runtimes[target]
        while self._memo_bytes > ANSWER_MEMO_BYTES:
            _, (old, _) = self._memo.popitem(last=False)
            self._memo_bytes -= old.nbytes
        n = len(queries)
        return [
            failures[t] if t in failures
            else {
                "values": matrices[t],
                "runtime_s": runtimes.get(t),
                "batch_size": n,
            }
            for t in (int(q.target) for q in queries)
        ]

    # -- reporting ------------------------------------------------------

    def latency_summary(self) -> Dict[str, float]:
        summary = timer_summary(self._latencies)
        summary.pop("sum_s")
        return summary

    def summary(self) -> dict:
        return {
            "engine": self.stats.to_dict(),
            "batcher": self.batcher.stats.to_dict(),
            "registry": self.registry.stats.to_dict(),
            "latency": self.latency_summary(),
            "resilience": self.report.to_dict(),
        }
