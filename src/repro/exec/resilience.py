"""Fault-tolerant task execution on top of :mod:`repro.exec.pool`.

:func:`run_tasks_resilient` preserves ``run_tasks``' contract — a list
of argument tuples in, results out in submission order — and adds the
recovery machinery a long pipeline run needs:

- **per-attempt timeouts** (pool mode): a hung worker is detected,
  killed with its pool, and the task re-attempted in a fresh pool;
- **bounded retries** with *deterministic* backoff: the sleep before
  attempt *k* of task *key* is drawn from the keyed RNG stream
  ``("resilience", "backoff", key, k)``, so two identical runs retry on
  an identical schedule;
- **pool restart** on worker crash (``BrokenProcessPool``), bounded by
  ``pool_restart_limit``, after which execution **degrades to serial**
  in the parent process rather than giving up;
- a :class:`RunReport` tallying every recovery event.

Determinism survives all of it because tasks are pure functions of
their arguments (see :mod:`repro.exec.pool`): a retry, a restart, or a
serial fallback replays exactly the same computation, so the *results*
of a faulty run are bit-identical to a fault-free serial run — only the
report differs.

Tasks are submitted in **waves** of at most ``pool size`` at a time.
That gives the timeout a sound meaning (every task in a wave holds a
worker, so a per-attempt deadline is a wall-clock deadline, never a
queueing artifact) at the cost of a barrier per wave — the right trade
for a recovery-oriented executor; the streaming fast path remains
``run_tasks``.

Faults planned via :mod:`repro.exec.faults` are applied at task entry
in both pool and serial modes, which is how the tests drive every
branch above.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.exec import faults
from repro.exec.pool import _mp_context, _worker_init, resolve_workers
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY, CounterSet
from repro.util.errors import (
    TaskCrashError,
    TaskTimeoutError,
    TransientTaskError,
)
from repro.util.rng import stream

T = TypeVar("T")

log = get_logger("exec.resilience")


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry/timeout/fallback policy for :func:`run_tasks_resilient`.

    ``max_retries`` is the number of *additional* attempts per task
    beyond the first.  ``task_timeout_s`` is enforced per attempt and
    only in pool mode (a serial task cannot be preempted from within
    the same process).  All fields are execution mechanics: like
    ``workers``, they can never change results and are excluded from
    signature-cache keys.
    """

    task_timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    pool_restart_limit: int = 2
    retry_exceptions: Tuple[type, ...] = (TransientTaskError, OSError)


@dataclass
class RunReport(CounterSet):
    """Tally of every recovery event in one run (shared across batches).

    The counters mirror into ``resilience.<name>`` metrics.
    """

    PREFIX = "resilience"

    retries: int = 0  #: task re-submissions, all causes
    transient_errors: int = 0  #: retryable exceptions observed
    timeouts: int = 0  #: per-attempt deadline expiries
    crashes: int = 0  #: BrokenProcessPool events (worker deaths)
    pool_restarts: int = 0  #: pools torn down and rebuilt
    serial_fallbacks: int = 0  #: degradations to in-process execution
    cache_corruptions: int = 0  #: quarantined cache entries (via sigcache)
    quarantined: List[str] = field(default_factory=list)
    events: List[str] = field(default_factory=list)

    def record(self, message: str) -> None:
        self.events.append(message)
        REGISTRY.inc("resilience.events")
        log.warning("%s", message)


def backoff_s(key: str, attempt: int, config: ResilienceConfig) -> float:
    """Deterministic jittered exponential backoff before a retry.

    Keyed by ``(key, attempt)``: independent of pool scheduling, wall
    time, and every other task — identical runs back off identically.
    """
    ceiling = min(
        config.backoff_base_s * (2.0 ** (attempt - 1)), config.backoff_max_s
    )
    jitter = stream("resilience", "backoff", key, attempt).uniform(0.5, 1.0)
    return float(ceiling * jitter)


def _call_with_faults(fn, key: str, attempt: int, args: tuple):
    """Task wrapper (module-level, hence picklable): faults then fn.

    Routes through :func:`repro.obs.trace.call_shipped` so the task runs
    with log context and, when tracing is enabled, under an ``exec.task``
    span — shipped back inside a ``TaskEnvelope`` from pool workers
    (the caller unwraps with :func:`repro.obs.trace.unwrap`).
    """
    faults.apply_fault(key, attempt)
    return obs_trace.call_shipped(fn, key, args)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on possibly-hung workers.

    ``shutdown`` never interrupts a running (possibly hung) task, so the
    worker processes are hard-killed directly.  ``_processes`` is a
    CPython internal; the access is guarded so a layout change degrades
    to a slow (not wrong) teardown.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for proc in processes:
        try:
            proc.kill()
        except Exception:  # pragma: no cover - already dead
            pass


def run_tasks_resilient(
    fn: Callable[..., T],
    tasks: Iterable[Sequence],
    *,
    keys: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    config: Optional[ResilienceConfig] = None,
    report: Optional[RunReport] = None,
    on_result: Optional[Callable[[int, T], None]] = None,
    stage: str = "exec",
    collect_errors: bool = False,
) -> Tuple[List[T], RunReport]:
    """Run ``fn(*task)`` for every task with retries/timeouts/fallback.

    Parameters
    ----------
    keys:
        Stable per-task names (used for fault matching, backoff
        derivation, and error context).  Defaults to ``task<i>``.
    report:
        A shared :class:`RunReport` to accumulate into (one report can
        span several batches of one pipeline run).
    on_result:
        Called in the parent as ``on_result(index, result)`` the moment
        a task's final result lands (out of submission order) — the
        checkpoint hook: callers persist each unit as it completes.
    collect_errors:
        When true, a task's *final* failure (retryable attempts
        exhausted, or a deterministic error) lands in its results slot
        as the exception object instead of aborting the whole run — the
        serving tier's per-query fault isolation: one broken unit must
        not poison its batch neighbors.

    Returns ``(results, report)`` with results in submission order.
    Deterministic failures propagate immediately; retryable failures
    propagate once attempts are exhausted, as taxonomy errors carrying
    the task key and attempt count (or, with ``collect_errors``, are
    returned in place).
    """
    config = config or ResilienceConfig()
    report = report if report is not None else RunReport()
    task_list = [tuple(t) for t in tasks]
    n = len(task_list)
    if keys is None:
        key_list = [f"task{i}" for i in range(n)]
    else:
        key_list = [str(k) for k in keys]
        if len(key_list) != n:
            raise ValueError(
                f"{len(key_list)} keys for {n} tasks; they must pair up"
            )
    results: List[Optional[T]] = [None] * n
    pending = deque((i, 1) for i in range(n))

    def finish(i: int, value: T) -> None:
        results[i] = value
        if on_result is not None:
            on_result(i, value)

    def fail(i: int, exc: BaseException) -> None:
        """A task's final failure: collect it in place or propagate."""
        if collect_errors and isinstance(exc, Exception):
            report.record(f"collected failure in {key_list[i]}: {exc}")
            finish(i, exc)  # type: ignore[arg-type]
            return
        raise exc

    def requeue(i: int, attempt: int, exc: BaseException, *, sleep: bool) -> None:
        """Schedule a retry of task ``i`` or fail it if attempts are spent."""
        key = key_list[i]
        if attempt > config.max_retries:
            if isinstance(exc, (TaskTimeoutError, TaskCrashError)):
                # re-wrap from the base message so the final error carries
                # one context block, not one per retry layer
                message = getattr(exc, "base_message", None) or (
                    str(exc.args[0]) if exc.args else "task failed"
                )
                fail(i, type(exc)(
                    message, stage=stage, task_key=key, attempts=attempt
                ))
                return
            fail(i, exc)
            return
        report.bump("retries")
        if sleep:
            time.sleep(backoff_s(key, attempt, config))
        pending.append((i, attempt + 1))

    def run_serial(remaining: deque) -> None:
        while remaining:
            i, attempt = remaining.popleft()
            key = key_list[i]
            try:
                # unwrap matters here too: serial execution *inside* a
                # pool worker (a nested resilient fan-out) still ships
                # envelopes, which absorb back into this process's state
                value = obs_trace.unwrap(
                    _call_with_faults(fn, key, attempt, task_list[i])
                )
            except config.retry_exceptions as exc:
                report.bump("transient_errors")
                report.record(f"transient error in {key} (attempt {attempt}): {exc}")
                requeue(i, attempt, exc, sleep=True)
            except TaskCrashError as exc:
                report.bump("crashes")
                report.record(f"crash in {key} (attempt {attempt}): {exc}")
                requeue(i, attempt, exc, sleep=True)
            except Exception as exc:
                # deterministic failure: retrying would replay it
                fail(i, exc)
            else:
                finish(i, value)

    pool_size = resolve_workers(workers, n)
    if pool_size == 0:
        run_serial(pending)
        return [r for r in results], report  # type: ignore[misc]

    restarts = 0
    pool: Optional[ProcessPoolExecutor] = None
    try:
        while pending:
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=pool_size,
                    mp_context=_mp_context(),
                    initializer=_worker_init,
                )
            # one wave: every submitted task holds a worker, so the
            # per-attempt timeout below is a true wall-clock deadline
            wave = [
                pending.popleft()
                for _ in range(min(pool_size, len(pending)))
            ]
            futures = {
                pool.submit(
                    _call_with_faults, fn, key_list[i], attempt, task_list[i]
                ): (i, attempt)
                for i, attempt in wave
            }
            done, not_done = wait(futures, timeout=config.task_timeout_s)
            pool_broken = False
            for future in done:
                i, attempt = futures[future]
                key = key_list[i]
                try:
                    value = obs_trace.unwrap(future.result())
                except BrokenProcessPool as exc:
                    pool_broken = True
                    requeue(i, attempt, TaskCrashError(
                        f"worker crashed: {exc}", task_key=key,
                    ), sleep=False)
                except config.retry_exceptions as exc:
                    report.bump("transient_errors")
                    report.record(
                        f"transient error in {key} (attempt {attempt}): {exc}"
                    )
                    requeue(i, attempt, exc, sleep=True)
                except Exception as exc:
                    # deterministic failure: retrying would replay it
                    fail(i, exc)
                else:
                    finish(i, value)
            if not_done:
                # deadline expired with attempts still running: those
                # workers may be hung — kill the pool and re-attempt
                for future in not_done:
                    i, attempt = futures[future]
                    key = key_list[i]
                    report.bump("timeouts")
                    report.record(
                        f"timeout in {key} (attempt {attempt}, "
                        f"budget {config.task_timeout_s}s)"
                    )
                    requeue(i, attempt, TaskTimeoutError(
                        f"exceeded {config.task_timeout_s}s budget",
                        task_key=key,
                    ), sleep=False)
                _kill_pool(pool)
                pool = None
                restarts += 1
                report.bump("pool_restarts")
                report.record("pool killed after timeout")
            elif pool_broken:
                report.bump("crashes")
                _kill_pool(pool)
                pool = None
                restarts += 1
                report.bump("pool_restarts")
                report.record("pool restarted after worker crash")
            if pool is None and pending and restarts > config.pool_restart_limit:
                report.bump("serial_fallbacks")
                report.record(
                    f"pool failed {restarts}x "
                    f"(limit {config.pool_restart_limit}); "
                    f"degrading {len(pending)} task(s) to serial"
                )
                run_serial(pending)
                break
    except BaseException:
        if pool is not None:
            _kill_pool(pool)
            pool = None
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return [r for r in results], report  # type: ignore[misc]
