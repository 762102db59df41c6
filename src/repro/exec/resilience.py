"""The one task executor: deterministic, fault-tolerant fan-out.

:func:`run_tasks_resilient` takes a list of argument tuples and returns
the results in submission order.  Every fan-out in the package runs
through it (per-count and per-rank collection, DAG waves, serving's
runtime replays) under one policy, :class:`ResilienceConfig`, whose
defaults are no timeout and two retries; ``--task-timeout`` and
``--max-retries`` override them.  On top of the fan-out it adds:

- **per-attempt timeouts** (pool mode): a hung attempt is detected,
  its worker killed, and the task re-attempted on a fresh one;
- **bounded retries** of :data:`RETRY_EXCEPTIONS`, crashes and
  timeouts, each after a *deterministic* backoff: the sleep before
  attempt *k* of task *key* is drawn from the keyed RNG stream
  ``("resilience", "backoff", key, k)``, so two identical runs retry on
  an identical schedule;
- **worker restart** on crash (a worker that exits without replying),
  bounded by ``pool_restart_limit``, after which execution **degrades
  to serial** in the parent process rather than giving up;
- an ``on_result`` hook fired as each task lands, so callers persist
  finished units before the batch ends;
- a :class:`RunReport` tallying every recovery event.

Determinism survives all of it because tasks are pure functions of
their arguments (see :mod:`repro.exec.pool`): a retry, a restart, or a
serial fallback replays exactly the same computation, so the *results*
of a faulty run are bit-identical to a fault-free serial run — only the
report differs.

Each of the ``pool size`` workers is a **lane**: one worker process
and one duplex pipe, running one attempt at a time; the next pending
task goes to whichever lane frees first.  A crash or a timeout therefore
kills exactly one attempt, and only that attempt is charged for it:
no neighbour dies with it, so the report's tallies do not depend on
what else happened to be running.  An attempt holds its worker from
submission, so its timeout is a wall-clock deadline, never a queueing
artifact, and no task waits on a slower neighbour.  Measured on a
2-vCPU VM with the finest-grained fan-out in the repository (UH3D
collection at 128 ranks, ``ranks="all"``, 2 workers, ~0.12 s per
rank), lanes keep the workers 95-96% busy, against 87-91% for waves of
``pool size`` tasks with a barrier after each, and 97-98% for one
shared pool fed every task at once, which buys its last points by
letting a crash kill whatever else is in flight.

Faults planned via :mod:`repro.exec.faults` are applied at task entry
in both pool and serial modes, which is how the tests drive every
branch above.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context
from multiprocessing.connection import wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.exec import faults
from repro.exec.pool import _WORKER_ENV, resolve_workers
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

#: failures worth another attempt: re-running the pure task may succeed
RETRY_EXCEPTIONS: Tuple[type, ...] = (TransientTaskError, OSError)


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


@dataclass
class RunReport(CounterSet):
    """Tally of every recovery event in one run (shared across batches).

    The counters mirror into ``resilience.<name>`` metrics.
    """

    PREFIX = "resilience"

    retries: int = 0  #: task re-submissions, all causes
    transient_errors: int = 0  #: retryable exceptions observed
    timeouts: int = 0  #: per-attempt deadline expiries
    crashes: int = 0  #: crashed attempts (dead workers, TaskCrashError)
    pool_restarts: int = 0  #: lane workers killed and replaced
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


def _mp_context():
    # fork is substantially cheaper than spawn and inherits the loaded
    # modules; fall back to the platform default where it is missing
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context()


def _call_with_faults(fn, key: str, attempt: int, args: tuple):
    """One attempt of a task, in a lane or in-process: faults, then fn."""
    faults.apply_fault(key, attempt)
    return obs_trace.call_task(fn, key, args)


def _lane_main(conn, parent_end) -> None:
    """A lane's worker: answer each ``(fn, key, attempt, args)`` with
    ``(ok, value or exception, drain_payload())`` until ``None`` or EOF."""
    parent_end.close()  # the fork's copy would keep EOF from ever arriving
    os.environ[_WORKER_ENV] = "1"
    # fresh per-worker observability state: an empty tracer (the parent's
    # buffered spans must not be shipped back twice) and a zeroed
    # metrics registry (the fork otherwise inherits the parent's counts)
    import repro.obs

    repro.obs.worker_init()
    try:
        for job in iter(conn.recv, None):
            try:
                ok, value = True, _call_with_faults(*job)
            except BaseException as exc:
                # interrupts and exits too: the parent re-raises them
                ok, value = False, exc
            payload = obs_trace.drain_payload()
            try:
                conn.send((ok, value, payload))
            except Exception as exc:
                # a value or exception that does not pickle (the failed
                # send wrote nothing) fails the attempt deterministically
                conn.send((False, exc, payload))
    except (EOFError, ConnectionError):  # the parent is gone
        pass


def _reap(proc, conn) -> Optional[int]:
    """Join a lane's worker, free its process and pipe; its exit code."""
    proc.join()
    code = proc.exitcode
    proc.close()
    conn.close()
    return code


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

    def requeue(i: int, attempt: int, exc: BaseException) -> None:
        """Back off and retry task ``i``, or fail it if attempts are spent."""
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
        time.sleep(backoff_s(key, attempt, config))
        pending.append((i, attempt + 1))

    def land(i: int, attempt: int, outcome: Callable[[], object]) -> None:
        """Take one attempt's outcome: finish, retry, or fail task ``i``."""
        key = key_list[i]
        try:
            value = outcome()
        except RETRY_EXCEPTIONS as exc:
            report.bump("transient_errors")
            report.record(f"transient error in {key} (attempt {attempt}): {exc}")
            requeue(i, attempt, exc)
        except TaskCrashError as exc:
            report.bump("crashes")
            report.record(f"crash in {key} (attempt {attempt}): {exc}")
            requeue(i, attempt, exc)
        except Exception as exc:
            # deterministic failure: retrying would replay it
            fail(i, exc)
        else:
            finish(i, value)

    def run_serial() -> None:
        while pending:
            i, attempt = pending.popleft()
            land(i, attempt, partial(
                _call_with_faults, fn, key_list[i], attempt, task_list[i]
            ))

    pool_size = resolve_workers(workers, n)
    if pool_size == 0:
        run_serial()
        return [r for r in results], report  # type: ignore[misc]

    budget = config.task_timeout_s
    context = _mp_context()
    # one worker process and one pipe per lane: a crash or a kill takes
    # down only the attempt on that lane, never a neighbour
    lanes: List[Optional[tuple]] = [None] * pool_size
    idle = list(range(pool_size))
    # lane -> (index, attempt, start) of the attempt in flight on it
    running: Dict[int, Tuple[int, int, float]] = {}
    restarts = 0
    degraded = False

    def restart(lane: int, why: str) -> Optional[int]:
        """Kill one lane's worker; past the limit, stop using lanes."""
        nonlocal restarts, degraded
        proc, conn = lanes[lane]
        lanes[lane] = None
        proc.kill()
        code = _reap(proc, conn)
        restarts += 1
        report.bump("pool_restarts")
        report.record(why)
        if restarts > config.pool_restart_limit and not degraded:
            degraded = True
            report.bump("serial_fallbacks")
            report.record(
                f"pool failed {restarts}x "
                f"(limit {config.pool_restart_limit}); "
                f"degrading the remaining task(s) to serial"
            )
        return code

    def lane_reply(lane: int):
        """A landed attempt's value; a worker gone without a reply crashed."""
        conn = lanes[lane][1]
        try:
            reply = conn.recv() if conn.poll() else None
        except (EOFError, ConnectionError):
            reply = None
        if reply is None:
            code = restart(lane, "pool restarted after worker crash")
            raise TaskCrashError(f"worker crashed (exit code {code})")
        ok, value, payload = reply
        obs_trace.absorb_payload(payload)
        if not ok:
            raise value
        return value

    try:
        while pending or running:
            while pending and idle and not degraded:
                lane = idle.pop()
                if lanes[lane] is None:
                    conn, child = context.Pipe()
                    proc = context.Process(
                        target=_lane_main, args=(child, conn), daemon=True
                    )
                    proc.start()
                    child.close()
                    lanes[lane] = (proc, conn)
                i, attempt = pending.popleft()
                lanes[lane][1].send((fn, key_list[i], attempt, task_list[i]))
                running[lane] = (i, attempt, time.monotonic())
            if not running:
                # degraded: what the lanes left over runs in-process
                run_serial()
                break
            timeout = None
            if budget is not None:
                oldest = min(start for _, _, start in running.values())
                timeout = max(0.0, oldest + budget - time.monotonic())
            # the sentinel too: a dead worker's pipe never reads EOF while
            # a process another thread forked mid-spawn holds its end
            owner = {}
            for lane in running:
                proc, conn = lanes[lane]
                owner[conn] = owner[proc.sentinel] = lane
            for handle in wait(list(owner), timeout):
                lane = owner[handle]
                if lane in running:  # its pipe and sentinel can both be ready
                    i, attempt, _ = running.pop(lane)
                    idle.append(lane)
                    land(i, attempt, partial(lane_reply, lane))
            now = time.monotonic()
            for lane, (i, attempt, start) in list(running.items()):
                if budget is None or now - start < budget:
                    continue
                # past its deadline, possibly hung: kill its worker
                del running[lane]
                idle.append(lane)
                key = key_list[i]
                report.bump("timeouts")
                report.record(
                    f"timeout in {key} (attempt {attempt}, budget {budget}s)"
                )
                restart(lane, "pool killed after timeout")
                requeue(i, attempt, TaskTimeoutError(
                    f"exceeded {budget}s budget", task_key=key,
                ))
    finally:
        # under fork each lane holds the parent's ends of the lanes started
        # before it, so none waits for EOF: idle workers get None, busy
        # ones are killed, and one already gone raises nothing that could
        # mask what ended the run
        live = [(lane, h) for lane, h in enumerate(lanes) if h is not None]
        for lane, (proc, conn) in live:
            if lane in running:
                proc.kill()
            else:
                with suppress(OSError):
                    conn.send(None)
        for _, handles in live:
            _reap(*handles)
    return [r for r in results], report  # type: ignore[misc]
