"""Deterministic fault injection for exercising recovery paths.

Every recovery path in the resilience layer (retry, pool restart,
serial fallback, cache quarantine) is tested rather than trusted, which
requires injecting failures *on demand and deterministically*.  A
:class:`FaultPlan` is a list of :class:`FaultSpec` entries; each matches
task keys by :mod:`fnmatch` pattern and fires only on listed 1-based
attempt numbers, so "crash on the first attempt, succeed on the retry"
is expressible without cross-process counters.

Activation is layered:

- tests call :func:`install_plan` / the :func:`injected` context
  manager (process-global override), or
- the ``REPRO_FAULT_PLAN`` environment variable holds the plan as JSON
  text (or ``@/path/to/plan.json``), which forked pool workers inherit.

Fault kinds:

=========  ==========================================================
``raise``  raise :class:`~repro.util.errors.TransientTaskError`
``hang``   sleep ``seconds`` (pair with the executor's task timeout)
``crash``  ``os._exit(17)`` inside a pool worker, whose lane reports
           the exit code; in serial execution it degrades to raising
           :class:`~repro.util.errors.TaskCrashError` so the parent
           process is never killed
``corrupt``  truncate a just-written signature-cache entry (matched
           against the cache key, attempts counting stores of it)
``poison-trace``  overwrite one trace feature element with an invalid
           value (NaN by default; any float via ``value``) right after
           collection (matched against the rank task key; consumed by
           :func:`poison_trace` in the collection path) — the fault
           that exercises the guard subsystem's degradation ladder
``slow-predict``  sleep ``seconds`` inside a serving batch execution
           (matched against the batch key ``serve:batch:<digest>:<kind>``
           with the attempt number counting that key's batches in flush
           order) — the fault that exercises per-query deadlines
``predict-raise``  raise :class:`~repro.util.errors.ServeError` inside
           a serving batch execution — the fault that drives the
           per-model circuit breaker
``corrupt-model-entry``  truncate one file of a just-persisted registry
           model (``feature`` selects ``meta``/``matrix``/``template``;
           matched against the model digest, attempts counting stores)
           — the fault that exercises registry quarantine + refit
``node-crash``  ``crash`` semantics scoped to pipeline-DAG node
           execution (matched against the node task key
           ``dag:<node-name>`` with the executor's attempt number) —
           the fault that exercises exactly-once node execution under
           worker death and retry
``corrupt-node-artifact``  truncate a committed DAG node artifact right
           before a later run re-validates it for reuse (matched
           against ``dag:<node-name>``, attempts counting validations
           of an existing artifact) — bit-rot between runs; the
           verification quarantines it and recomputes the node
``stale-lock``  plant an already-stale node lockfile right before the
           DAG tries to acquire it (matched against ``dag:<node-name>``,
           attempts counting acquisition tries) — the fault that
           exercises stale-lock takeover between concurrent
           ``repro dag run`` processes
=========  ==========================================================

The four storage kinds (``corrupt``, ``corrupt-model-entry``,
``corrupt-node-artifact``, ``stale-lock``) fire inside
:class:`repro.util.store.Store`, the one lifecycle behind every
content-addressed store; each store names the kinds it honors.
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.exec.pool import in_worker
from repro.util.errors import ServeError, TaskCrashError, TransientTaskError

#: environment variable holding a JSON plan (or ``@path`` to one)
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

KINDS = (
    "raise",
    "hang",
    "crash",
    "corrupt",
    "poison-trace",
    "slow-predict",
    "predict-raise",
    "corrupt-model-entry",
    "node-crash",
    "corrupt-node-artifact",
    "stale-lock",
)

#: exit status used by injected worker crashes (recognizable in logs)
CRASH_EXIT_CODE = 17


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: *which* task, *when*, and *how*."""

    key: str  #: fnmatch pattern against the task / cache key
    kind: str  #: one of :data:`KINDS`
    attempts: Tuple[int, ...] = (1,)  #: 1-based attempt numbers that fire
    seconds: float = 3600.0  #: hang duration (``hang`` only)
    message: str = "injected fault"
    # poison-trace targeting: which element to overwrite, and with what.
    # Block/instruction indices are positions in the sorted trace (taken
    # modulo the trace's actual sizes, so "0" always hits something).
    # ``value=None`` means NaN — kept out of the field itself so specs
    # stay ``==``-comparable and the JSON stays standard (null, not the
    # nonstandard ``NaN`` literal).
    feature: str = "exec_count"
    block_index: int = 0
    instr_index: int = 0
    value: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {KINDS}")

    def matches(self, key: str, attempt: int) -> bool:
        return attempt in self.attempts and fnmatch.fnmatchcase(key, self.key)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of fault specs, JSON round-trippable."""

    specs: Tuple[FaultSpec, ...] = ()

    def spec_for(
        self, key: str, attempt: int, kinds: Tuple[str, ...] = KINDS
    ) -> Optional[FaultSpec]:
        """First spec matching ``(key, attempt)`` among ``kinds``."""
        for spec in self.specs:
            if spec.kind in kinds and spec.matches(key, attempt):
                return spec
        return None

    # ------------------------------------------------------------------
    # (de)serialization — the env-var / CI transport

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "key": s.key,
                    "kind": s.kind,
                    "attempts": list(s.attempts),
                    "seconds": s.seconds,
                    "message": s.message,
                    "feature": s.feature,
                    "block_index": s.block_index,
                    "instr_index": s.instr_index,
                    "value": s.value,
                }
                for s in self.specs
            ]
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        raw = json.loads(text)
        if not isinstance(raw, list):
            raise ValueError("fault plan JSON must be a list of specs")
        specs = []
        for entry in raw:
            specs.append(
                FaultSpec(
                    key=entry["key"],
                    kind=entry["kind"],
                    attempts=tuple(entry.get("attempts", (1,))),
                    seconds=float(entry.get("seconds", 3600.0)),
                    message=entry.get("message", "injected fault"),
                    feature=entry.get("feature", "exec_count"),
                    block_index=int(entry.get("block_index", 0)),
                    instr_index=int(entry.get("instr_index", 0)),
                    value=(
                        None if entry.get("value") is None
                        else float(entry["value"])
                    ),
                )
            )
        return cls(specs=tuple(specs))


#: process-global override installed by tests (inherited by forked workers)
_INSTALLED: Optional[FaultPlan] = None

#: per-(kinds, key) occurrence counts behind :func:`planned`, so a spec
#: can address the n-th store / validation / lock try / batch of a key;
#: only advanced while a plan is active
_COUNTS: Dict[Tuple[Tuple[str, ...], str], int] = defaultdict(int)


@lru_cache(maxsize=8)
def _parse_env_plan(value: str) -> FaultPlan:
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            value = fh.read()
    return FaultPlan.from_json(value)


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install (or clear, with ``None``) the process-global plan."""
    global _INSTALLED
    previous = _INSTALLED
    _INSTALLED = plan
    _COUNTS.clear()
    return previous


@contextmanager
def injected(plan: FaultPlan):
    """Scoped plan installation for tests."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the ``REPRO_FAULT_PLAN`` one, else None."""
    if _INSTALLED is not None:
        return _INSTALLED
    value = os.environ.get(ENV_FAULT_PLAN)
    if not value:
        return None
    return _parse_env_plan(value)


def apply_fault(key: str, attempt: int = 1) -> None:
    """Fire any execution fault planned for ``(key, attempt)``.

    Called at task entry by the executors (both the wrapped pool task
    and the serial loop), so injection is independent of where the task
    runs.  A no-op without an active plan.
    """
    plan = active_plan()
    if plan is None:
        return
    # node-crash is crash scoped to DAG node keys (``dag:<name>``): the
    # executor passes true attempt numbers here, so "crash the first
    # execution, succeed on retry" stays expressible across pool
    # rebuilds without cross-process counters
    spec = plan.spec_for(
        key, attempt, kinds=("raise", "hang", "crash", "node-crash")
    )
    if spec is None:
        return
    if spec.kind == "raise":
        raise TransientTaskError(spec.message, task_key=key, attempts=attempt)
    if spec.kind == "hang":
        time.sleep(spec.seconds)
        return
    # crash / node-crash: kill the worker process outright so its lane
    # reports a dead worker; serially, raise instead of killing the
    # caller
    if in_worker():
        os._exit(CRASH_EXIT_CODE)
    raise TaskCrashError(
        spec.message + " (serial crash)", task_key=key, attempts=attempt
    )


def poison_trace(trace, key: str, attempt: int = 1):
    """Apply every planned ``poison-trace`` fault to a collected trace.

    Called by the collection path right after a rank trace is produced,
    with the same task key the execution faults use
    (``collect:<app>:<n>:rank<r>``) — so one ``REPRO_FAULT_PLAN``
    drives both recovery *and* guardrail scenarios.  Mutates and
    returns the trace; a no-op without an active plan or matching spec.
    """
    plan = active_plan()
    if plan is None:
        return trace
    for spec in plan.specs:
        if spec.kind != "poison-trace" or not spec.matches(key, attempt):
            continue
        blocks = list(trace.blocks.values())
        if not blocks:
            continue
        block = blocks[spec.block_index % len(blocks)]
        if not block.instructions:
            continue
        row = trace.row(block.block_id, spec.instr_index % block.n_instructions)
        value = float("nan") if spec.value is None else spec.value
        trace.features[row, trace.schema.index(spec.feature)] = value
    return trace


def planned(key: str, *kinds: str) -> Optional[FaultSpec]:
    """The spec among ``kinds`` planned for this occurrence of ``key``.

    Each call is one occurrence: the n-th call for a ``(kinds, key)``
    pair is attempt n.  The storage faults use it through
    :class:`repro.util.store.Store` (``corrupt`` and
    ``corrupt-model-entry`` count stores of a key,
    ``corrupt-node-artifact`` counts validations of an existing DAG
    artifact, ``stale-lock`` counts lock acquisitions), the serving
    faults per batch key.  Counts only advance while a plan is active,
    so a plan installed mid-run addresses occurrences from its own
    activation onward.
    """
    plan = active_plan()
    if plan is None:
        return None
    _COUNTS[kinds, key] += 1
    return plan.spec_for(key, _COUNTS[kinds, key], kinds=kinds)


def serve_fault(key: str) -> float:
    """Look up the serving fault planned for this batch of ``key``.

    Called by the query engine on its event loop as it flushes each
    batch, with the batch key (``serve:batch:<digest12>:<kind>``); the
    attempt number is the per-key batch count in flush order, so "fail
    the third batch" is one spec.  Returns the seconds a planned
    ``slow-predict`` stalls the batch (the engine sleeps where the batch
    runs), else 0.0; a planned ``predict-raise`` raises a
    :class:`~repro.util.errors.ServeError` that fans out to the batch
    and feeds the model's circuit breaker.
    """
    kinds = ("slow-predict", "predict-raise")
    spec = planned(key, *kinds)
    if spec is None:
        return 0.0
    if spec.kind == "slow-predict":
        return spec.seconds
    raise ServeError(
        spec.message, stage="serve", task_key=key, attempts=_COUNTS[kinds, key]
    )
