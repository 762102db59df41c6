"""Parallel execution substrate.

Three layers for the collection pipeline:

- :mod:`repro.exec.resilience` — the one fan-out of independent tasks
  (rank traces, per-core-count signatures, DAG nodes, serving's
  runtime replays): deterministic results in submission order, with
  per-task timeouts, bounded deterministic retries, one single-worker
  pool per worker restarted on crash, serial fallback, and a
  :class:`RunReport` of recovery events.  :mod:`repro.exec.pool`
  holds its pool sizing and worker flag; :mod:`repro.exec.faults` is
  the matching deterministic fault-injection harness that keeps every
  recovery path tested.
- :mod:`repro.exec.sigcache` — on-disk memoization of collected
  signatures (digest-verified, corruption-quarantining) so repeated
  experiments and benchmarks skip recollection.
"""

from repro.exec.faults import (
    ENV_FAULT_PLAN,
    FaultPlan,
    FaultSpec,
    active_plan,
    apply_fault,
    injected,
    install_plan,
)
from repro.exec.pool import in_worker, resolve_workers, run_tasks
from repro.exec.resilience import (
    ResilienceConfig,
    RunReport,
    run_tasks_resilient,
)
from repro.exec.sigcache import SCHEMA_VERSION, CacheStats, SignatureCache

__all__ = [
    "CacheStats",
    "ENV_FAULT_PLAN",
    "FaultPlan",
    "FaultSpec",
    "ResilienceConfig",
    "RunReport",
    "SCHEMA_VERSION",
    "SignatureCache",
    "active_plan",
    "apply_fault",
    "in_worker",
    "injected",
    "install_plan",
    "resolve_workers",
    "run_tasks",
    "run_tasks_resilient",
]
