"""Lightweight span tracer producing Chrome-trace-format JSON.

``span("collect.rank", app=..., rank=...)`` opens a nested wall-clock
span; when tracing is enabled (``--trace-out trace.json`` or
``$REPRO_TRACE=1``) every closed span becomes one complete ("ph": "X")
event in a Chrome trace file loadable by ``chrome://tracing`` and
Perfetto.  When tracing is disabled, :func:`span` returns a shared
no-op context manager, so instrumented code pays one module-global read
per call — nothing else.

Span names are dotted ``stage.detail`` strings (``collect.rank``,
``fit.series``, ``replay.job``); the first component is the pipeline
stage, which :meth:`Tracer.stage_durations` aggregates for the run
manifest.

**Cross-process propagation.**  Pool workers cannot append to the
parent's tracer or metrics registry, so their observability ships back
*with the task result*: :mod:`repro.exec.resilience` routes every task
through :func:`call_shipped`, which in a worker wraps the return value
in a :class:`TaskEnvelope` carrying the worker's metric deltas (always)
and its drained spans (when tracing is on); the parent unwraps with
:func:`unwrap` and absorbs them.
Timestamps come from ``time.perf_counter_ns`` — ``CLOCK_MONOTONIC`` on
Linux, shared across forked processes — so parent and worker spans sit
on one consistent timeline.

Tracing is observability-only by construction: it reads the clock and
appends to a list; it never touches an RNG stream or any pipeline
value, so enabling it cannot change numeric outputs.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.obs.metrics import REGISTRY

#: environment flag that tells (possibly spawned) workers to collect
ENV_TRACE = "REPRO_TRACE"

#: mirrors repro.exec.pool._WORKER_ENV (re-declared here: importing
#: repro.exec loads the executor, which imports this module)
_WORKER_ENV = "REPRO_EXEC_WORKER"

_local = threading.local()


def _stack() -> list:
    try:
        return _local.stack
    except AttributeError:
        _local.stack = []
        return _local.stack


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Tracer:
    """An append-only buffer of completed Chrome-trace events."""

    def __init__(self) -> None:
        self.events: List[dict] = []

    # -- recording ------------------------------------------------------

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        args: Optional[dict] = None,
        depth: int = 0,
    ) -> None:
        event = {
            "name": name,
            "cat": "repro",
            "ph": "X",
            "ts": start_ns / 1000.0,  # Chrome trace wants microseconds
            "dur": max(end_ns - start_ns, 0) / 1000.0,
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": {"depth": depth, **(args or {})},
        }
        self.events.append(event)

    def absorb(self, events: List[dict]) -> None:
        """Merge completed events shipped back from a worker."""
        self.events.extend(events)

    def drain(self) -> List[dict]:
        """Take (and clear) the buffered events — the shipping primitive."""
        events, self.events = self.events, []
        return events

    # -- aggregation / export -------------------------------------------

    def stage_durations(self) -> Dict[str, dict]:
        """Per-span-name ``{count, total_s}`` aggregates (manifest food).

        Keyed by the full dotted span name, so nested spans (which would
        double-count a stage if summed by prefix) stay separate entries.
        """
        out: Dict[str, dict] = {}
        for event in self.events:
            entry = out.setdefault(event["name"], {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += event["dur"] / 1e6
        for entry in out.values():
            entry["total_s"] = round(entry["total_s"], 9)
        return dict(sorted(out.items()))

    def stages(self) -> List[str]:
        """Distinct pipeline stages (first name component) observed."""
        return sorted({e["name"].split(".", 1)[0] for e in self.events})

    def to_chrome(self) -> dict:
        """The Chrome trace document (timestamps rebased to t=0)."""
        base = min((e["ts"] for e in self.events), default=0.0)
        events = []
        for event in self.events:
            rebased = dict(event)
            rebased["ts"] = round(event["ts"] - base, 3)
            rebased["dur"] = round(event["dur"], 3)
            events.append(rebased)
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.trace"},
        }

    def export_chrome(self, path: Union[str, Path]) -> dict:
        doc = self.to_chrome()
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
        return doc


#: the process-global tracer; ``None`` means tracing is off
_TRACER: Optional[Tracer] = None


def enable() -> Tracer:
    """Turn span collection on (idempotent); returns the tracer.

    Also sets ``$REPRO_TRACE`` so pool workers — forked or spawned —
    know to collect and ship their spans.
    """
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer()
    os.environ[ENV_TRACE] = "1"
    return _TRACER


def disable() -> None:
    global _TRACER
    _TRACER = None
    os.environ.pop(ENV_TRACE, None)


def is_enabled() -> bool:
    return _TRACER is not None


def current() -> Optional[Tracer]:
    return _TRACER


def worker_init() -> None:
    """Reset tracing state inside a fresh pool worker.

    A forked worker inherits the parent's tracer *with the parent's
    buffered events*; shipping those back verbatim would duplicate
    them.  Workers therefore always start with an empty tracer (enabled
    when ``$REPRO_TRACE`` says so) and an empty span stack.
    """
    global _TRACER
    _local.stack = []
    _TRACER = Tracer() if os.environ.get(ENV_TRACE) == "1" else None


# ----------------------------------------------------------------------
# the span API


class _NullSpan:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "args", "start_ns", "depth")

    def __init__(self, tracer: Tracer, name: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        stack = _stack()
        self.depth = len(stack)
        stack.append(self.name)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        stack = _stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        args = {k: _jsonable(v) for k, v in self.args.items()}
        if exc_type is not None:
            args["error"] = exc_type.__name__
        self.tracer.record(
            self.name, self.start_ns, end_ns, args, depth=self.depth
        )
        return False  # never swallow the exception


def span(name: str, /, **args):
    """Context manager timing one named span (no-op when tracing is off).

    ``name`` is positional-only so span args may themselves be called
    ``name`` (e.g. ``span("collect.rank", name=app.name)``).
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer, name, args)


def active_spans() -> List[str]:
    """Names of the spans currently open on this thread (outermost first)."""
    return list(_stack())


def traced(name: Optional[str] = None, **attrs) -> Callable:
    """Decorator form of :func:`span`; defaults to the function name."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# worker -> parent propagation


class TaskEnvelope:
    """A worker task's result plus its observability payload."""

    __slots__ = ("value", "events", "metrics")

    def __init__(self, value, events: List[dict], metrics: dict):
        self.value = value
        self.events = events
        self.metrics = metrics


def call_shipped(fn: Callable, key: str, args: tuple):
    """Run ``fn(*args)`` under a task span, shipping a worker's payload.

    In a pool worker the value comes back in a :class:`TaskEnvelope`
    with the worker's metric deltas, so a run's counters do not depend
    on its pool size, plus its spans when tracing is on; the parent
    recovers the plain value (and absorbs the payload) with
    :func:`unwrap`.  Outside a worker this is a plain call: spans and
    metrics land directly in the calling process.
    """
    from repro.obs import log as obs_log

    obs_log.set_task_context(task=key)
    try:
        with span("exec.task", key=key):
            value = fn(*args)
        if os.environ.get(_WORKER_ENV) != "1":
            return value
        events = _TRACER.drain() if _TRACER is not None else []
        return TaskEnvelope(value, events, REGISTRY.drain())
    finally:
        obs_log.clear_task_context()


def unwrap(value):
    """Recover a task result, absorbing any shipped worker payload."""
    if isinstance(value, TaskEnvelope):
        if _TRACER is not None:
            _TRACER.absorb(value.events)
        REGISTRY.merge(value.metrics)
        return value.value
    return value
