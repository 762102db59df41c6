"""Micro-batching: coalesce compatible queries into one array pass.

The whole point of serving from :class:`~repro.core.fitting.
BatchedFitReport` is that ``predict_many`` answers *n* targets for
little more than the cost of one — but only if concurrent queries
actually arrive at it together.  The :class:`MicroBatcher` makes that
happen: queries submitted within a bounded window are grouped by a
*compatibility key* (same fitted model, same query kind — incompatible
keys are never co-batched) and flushed as one batch when either

- the batch reaches ``max_batch`` queries (size flush), or
- ``window_s`` elapses since the batch opened (deadline flush, so a
  lone query is never stuck waiting for company).

Each submitter gets back a future resolved with its own slice of the
batch result.  Cancelled futures are dropped at flush time — a caller
abandoning its query neither poisons nor delays the rest of the batch.
Items may carry an *expiry* (absolute ``perf_counter`` seconds): an
item whose expiry has passed by flush time is answered with the
engine-supplied ``on_expire`` exception instead of being computed —
the batch-flush boundary of the per-query deadline contract.

``run_batch`` may return either a sequence of results (executed
synchronously on the event loop — the cheap ``predict_many`` path) or
a coroutine (scheduled as a task — the worker-offload path for
runtime replay, which must never block the loop).  Either way, a
per-item result that is itself an exception instance is delivered to
that item's future as a failure, so one poisoned query inside an
otherwise healthy batch fails alone.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.obs.metrics import REGISTRY, CounterSet
from repro.obs.trace import span
from repro.util.errors import ServeError


@dataclass
class BatcherStats(CounterSet):
    """Flush accounting, mirrored into ``serve.batch.*`` metrics."""

    PREFIX = "serve.batch"

    queries: int = 0
    batches: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    drain_flushes: int = 0
    cancelled: int = 0
    expired: int = 0

    def to_dict(self) -> dict:
        doc = super().to_dict()
        doc["mean_batch"] = self.queries / self.batches if self.batches else 0.0
        return doc


@dataclass
class _PendingBatch:
    items: List[Any] = field(default_factory=list)
    futures: List[asyncio.Future] = field(default_factory=list)
    expiries: List[Optional[float]] = field(default_factory=list)
    timer: Optional[asyncio.TimerHandle] = None


class MicroBatcher:
    """Group submissions by key; flush on size or deadline.

    ``run_batch(key, items)`` executes one coalesced batch and must
    produce one result per item, in order (a per-item exception
    instance counts as that item's failed result).  A sequence return
    runs synchronously on the event loop; a coroutine return is
    scheduled as a task and fans out on completion.  Exceptions raised
    by either form are fanned out to every live submitter of that
    batch.  ``on_expire(item)`` builds the exception delivered to items
    whose expiry passed before the batch ran.
    """

    def __init__(
        self,
        run_batch: Callable[[Hashable, List[Any]], Any],
        *,
        max_batch: int = 64,
        window_s: float = 0.002,
        on_expire: Optional[Callable[[Any], BaseException]] = None,
    ):
        if max_batch < 1:
            raise ServeError(
                f"max_batch must be >= 1, got {max_batch}", stage="serve"
            )
        if not window_s > 0:
            raise ServeError(
                f"batch window must be positive, got {window_s}",
                stage="serve",
            )
        self._run_batch = run_batch
        self.max_batch = max_batch
        self.window_s = window_s
        self._on_expire = on_expire
        self._pending: Dict[Hashable, _PendingBatch] = {}
        self._tasks: set = set()
        self.stats = BatcherStats()

    @property
    def pending_keys(self) -> List[Hashable]:
        return list(self._pending)

    def enqueue(
        self,
        key: Hashable,
        item: Any,
        expiry: Optional[float] = None,
    ) -> asyncio.Future:
        """Enqueue one query; return the future that resolves with its
        answer.

        Synchronous on purpose: the engine's dispatcher calls this in a
        tight loop, and a plain future keeps the per-query hot path free
        of task creation (a size flush may run the batch before this
        returns, in which case the future is already resolved).
        ``expiry`` is an absolute ``perf_counter`` deadline; past-due
        items are expired (not computed) at flush time.
        """
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        batch = self._pending.get(key)
        if batch is None:
            batch = _PendingBatch()
            self._pending[key] = batch
            batch.timer = loop.call_later(
                self.window_s, self._flush, key, "deadline_flushes"
            )
        batch.items.append(item)
        batch.futures.append(fut)
        batch.expiries.append(expiry)
        self.stats.bump("queries")
        if len(batch.items) >= self.max_batch:
            self._flush(key, "size_flushes")
        return fut

    async def submit(
        self, key: Hashable, item: Any, expiry: Optional[float] = None
    ) -> Any:
        """Enqueue one query under its compatibility key; await its answer."""
        return await self.enqueue(key, item, expiry)

    def flush_all(self) -> None:
        """Flush every open batch immediately (drain/shutdown path)."""
        for key in list(self._pending):
            self._flush(key, "drain_flushes")

    # -- flush machinery ------------------------------------------------

    def _expire_exc(self, item: Any) -> BaseException:
        if self._on_expire is not None:
            return self._on_expire(item)
        return ServeError("query expired before its batch ran", stage="serve")

    def _flush(self, key: Hashable, reason: str) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        live = [
            (item, fut, expiry)
            for item, fut, expiry in zip(
                batch.items, batch.futures, batch.expiries
            )
            if not fut.done()
        ]
        dropped = len(batch.items) - len(live)
        if dropped:
            self.stats.bump("cancelled", dropped)
        now = perf_counter()
        fresh: List[Tuple[Any, asyncio.Future]] = []
        for item, fut, expiry in live:
            if expiry is not None and now >= expiry:
                self.stats.bump("expired")
                fut.set_exception(self._expire_exc(item))
            else:
                fresh.append((item, fut))
        if not fresh:
            return
        self.stats.bump("batches")
        self.stats.bump(reason)
        REGISTRY.observe("serve.batch_size", float(len(fresh)))
        # flush-reason mix, weighted by batch size: how many queries
        # each trigger (size / deadline / drain) actually carried
        REGISTRY.inc(f"serve.batch.queries_by.{reason}", len(fresh))
        items = [item for item, _ in fresh]
        try:
            # the flush span carries the reason so --trace-out shows
            # which trigger (size / deadline / drain) ran each batch
            with span(
                "serve.flush",
                key=str(key),
                reason=reason,
                size=len(items),
            ):
                results = self._run_batch(key, items)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            self._fail(fresh, exc)
            return
        if asyncio.iscoroutine(results):
            # worker-offload path: the batch runs off-loop; completion
            # fans out from the task's done callback
            task = asyncio.get_running_loop().create_task(
                results, name=f"serve-batch-{key}"
            )
            self._tasks.add(task)
            task.add_done_callback(partial(self._complete_async, fresh))
            return
        self._complete(fresh, results)

    def _fail(
        self, fresh: List[Tuple[Any, asyncio.Future]], exc: BaseException
    ) -> None:
        for _, fut in fresh:
            if not fut.done():
                fut.set_exception(exc)

    def _complete_async(
        self,
        fresh: List[Tuple[Any, asyncio.Future]],
        task: asyncio.Task,
    ) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            for _, fut in fresh:
                if not fut.done():
                    fut.cancel()
            return
        exc = task.exception()
        if exc is not None:
            self._fail(fresh, exc)
            return
        self._complete(fresh, task.result())

    def _complete(
        self, fresh: List[Tuple[Any, asyncio.Future]], results: Any
    ) -> None:
        if len(results) != len(fresh):
            self._fail(
                fresh,
                ServeError(
                    f"batch executor returned {len(results)} results for "
                    f"{len(fresh)} queries",
                    stage="serve",
                ),
            )
            return
        for (_, fut), result in zip(fresh, results):
            if fut.done():
                continue
            if isinstance(result, BaseException):
                fut.set_exception(result)
            else:
                fut.set_result(result)
