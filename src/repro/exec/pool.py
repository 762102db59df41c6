"""Worker-process primitives shared by the executor and the fault harness.

Every stochastic computation in this codebase derives its randomness
from a *keyed* RNG stream (:func:`repro.util.rng.stream`), never from
call order or shared-generator state.  Executing independent tasks
concurrently therefore cannot change any result: parallel output is
bit-for-bit identical to serial by construction.

The one fan-out is :func:`repro.exec.resilience.run_tasks_resilient`;
this module holds its pool sizing and the worker flag that keeps a task
which itself fans out serial instead of spawning a nested pool.
:func:`run_tasks` is the executor's results-only form under the default
policy.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

#: set in worker processes so nested fan-outs stay serial
_WORKER_ENV = "REPRO_EXEC_WORKER"


def in_worker() -> bool:
    """True when running inside a pool worker."""
    return os.environ.get(_WORKER_ENV) == "1"


def resolve_workers(workers: Optional[int], n_tasks: int) -> int:
    """Resolve a ``workers`` request to a pool size (0 = run inline).

    ``None`` asks for one worker per CPU (capped at the task count);
    ``0``/``1`` force serial execution; anything larger is capped at
    the task count.  Nested calls (from inside a pool worker) always
    resolve to serial.
    """
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if n_tasks <= 1 or in_worker():
        return 0
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1:
        return 0
    return min(workers, n_tasks)


def run_tasks(
    fn: Callable[..., T],
    tasks: Iterable[Sequence],
    *,
    workers: Optional[int] = None,
    keys: Optional[Sequence[str]] = None,
) -> List[T]:
    """Run ``fn(*task)`` for every task; results in task order.

    :func:`repro.exec.resilience.run_tasks_resilient` under the default
    :class:`~repro.exec.resilience.ResilienceConfig`, without its
    report.  ``fn`` and every task element must be picklable.
    """
    # local import: the executor imports this module
    from repro.exec.resilience import run_tasks_resilient

    results, _ = run_tasks_resilient(fn, tasks, workers=workers, keys=keys)
    return results
