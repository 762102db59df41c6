"""Process-local metrics registry: counters, gauges, histogram timers.

One global :data:`REGISTRY` absorbs every tally the pipeline produces —
the signature cache's hit/miss/store/corrupt counts, the resilient
executor's recovery events, per-stage wall-clock timers, cache-simulator
throughput counters — and exports them as one JSON document
(``--metrics-out metrics.json``).  The legacy per-instance tallies
(:class:`repro.exec.sigcache.CacheStats`,
:class:`repro.exec.resilience.RunReport`) remain as thin views: their
increment sites mirror into the registry, so the exported counters
always equal the legacy text summaries.

Everything here is observability-only: no RNG, no influence on any
numeric pipeline output, and cheap enough (dict updates) to stay always
on.  Worker processes get a fresh registry
(:func:`repro.obs.worker_init`) and ship their deltas back to the parent
inside the span envelope (see :mod:`repro.obs.trace`), where
:meth:`MetricsRegistry.merge` folds them in.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar, Dict, List, Union

from repro.obs.telemetry import StreamingHistogram


class Counter:
    """Handle to one monotonically increasing counter."""

    __slots__ = ("_registry", "name")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self.name = name

    def inc(self, n: Union[int, float] = 1) -> None:
        self._registry.inc(self.name, n)

    @property
    def value(self) -> Union[int, float]:
        return self._registry.counters.get(self.name, 0)


class Gauge:
    """Handle to one last-value-wins gauge."""

    __slots__ = ("_registry", "name")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self.name = name

    def set(self, value: float) -> None:
        self._registry.set_gauge(self.name, value)

    @property
    def value(self) -> float:
        return self._registry.gauges.get(self.name, 0.0)


def _quantile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list (q in [0, 1])."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if n == 1:
        return sorted_values[0]
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


#: exact observations kept per timer: short runs (and every existing
#: p50/p95 test expectation) stay numerically identical to the old
#: raw-list math; past this the streaming histogram answers quantiles
RESERVOIR_SIZE = 256


class TimerState:
    """One timer's bounded state: streaming histogram + exact reservoir.

    The histogram makes memory O(1) however long the process serves
    (the raw-list timers it replaces grew one float per observation);
    the first :data:`RESERVOIR_SIZE` observations are also kept exactly
    so short-run quantiles match the legacy sorted-list interpolation
    bit for bit.  ``count``/``sum``/``max`` are always exact.
    """

    __slots__ = ("hist", "reservoir")

    def __init__(self) -> None:
        self.hist = StreamingHistogram()
        self.reservoir: List[float] = []

    @property
    def exact(self) -> bool:
        """True while every observation is still in the reservoir."""
        return self.hist.count <= RESERVOIR_SIZE

    def observe(self, seconds: float) -> None:
        value = float(seconds)
        self.hist.observe(value)
        if len(self.reservoir) < RESERVOIR_SIZE:
            self.reservoir.append(value)

    def quantile(self, q: float) -> float:
        if self.exact:
            return _quantile(sorted(self.reservoir), q)
        return self.hist.quantile(q)

    def summary(self) -> Dict[str, float]:
        hist = self.hist
        return {
            "count": hist.count,
            "sum_s": hist.total,
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
            "max_s": hist.max_value if hist.count else 0.0,
        }

    def to_dict(self) -> dict:
        return {
            "hist": self.hist.to_dict(),
            "reservoir": list(self.reservoir),
        }

    def merge(self, shipped: Union["TimerState", dict, List[float]]) -> None:
        """Fold a shipped form in: another state, its :meth:`to_dict`,
        or a legacy raw list of observations."""
        if isinstance(shipped, list):
            for value in shipped:
                self.observe(value)
            return
        if isinstance(shipped, TimerState):
            hist, reservoir = shipped.hist, shipped.reservoir
        else:
            hist = StreamingHistogram.from_dict(shipped["hist"])
            reservoir = shipped.get("reservoir", [])
        self.hist.merge(hist)
        room = RESERVOIR_SIZE - len(self.reservoir)
        if room > 0:
            self.reservoir.extend(float(v) for v in reservoir[:room])


class Timer:
    """Handle to one histogram timer (observations in seconds)."""

    __slots__ = ("_registry", "name")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self.name = name

    def observe(self, seconds: float) -> None:
        self._registry.observe(self.name, seconds)

    @contextmanager
    def time(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - t0)

    def summary(self) -> Dict[str, float]:
        state = self._registry.timers.get(self.name)
        if state is None:
            state = TimerState()
        return state.summary()


class MetricsRegistry:
    """Counters, gauges, and histogram timers for one process.

    Counter/gauge/timer names are free-form dotted strings
    (``cache.hits``, ``replay.jobs``, ``fit.series_s``); the registry
    creates them on first touch.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Union[int, float]] = {}
        self.gauges: Dict[str, float] = {}
        self.timers: Dict[str, TimerState] = {}

    # -- primitive operations (also reachable through handles) ---------

    def inc(self, name: str, n: Union[int, float] = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Allocation-free gauge write for hot paths (no handle object)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        state = self.timers.get(name)
        if state is None:
            state = self.timers[name] = TimerState()
        state.observe(seconds)

    def counter(self, name: str) -> Counter:
        return Counter(self, name)

    def gauge(self, name: str) -> Gauge:
        return Gauge(self, name)

    def timer(self, name: str) -> Timer:
        return Timer(self, name)

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.timers.clear()

    def drain(self) -> Dict[str, dict]:
        """Snapshot everything and reset — the worker-shipping primitive."""
        snapshot = {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {k: v.to_dict() for k, v in self.timers.items()},
        }
        self.reset()
        return snapshot

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold a :meth:`drain` snapshot (e.g. from a pool worker) in.

        Timer snapshots arrive as :meth:`TimerState.to_dict` documents;
        legacy raw-list snapshots (pre-histogram drains) still merge.
        """
        for name, n in snapshot.get("counters", {}).items():
            self.inc(name, n)
        self.gauges.update(snapshot.get("gauges", {}))
        for name, shipped in snapshot.get("timers", {}).items():
            state = self.timers.get(name)
            if state is None:
                state = self.timers[name] = TimerState()
            state.merge(shipped)

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The exported document: plain counters/gauges + timer summaries."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": {
                name: Timer(self, name).summary()
                for name in sorted(self.timers)
            },
        }

    def export(self, path: Union[str, Path]) -> dict:
        """Write the registry as a JSON document; returns the document."""
        doc = self.to_dict()
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return doc


#: the process-global registry every pipeline layer reports into
REGISTRY = MetricsRegistry()


@dataclass
class CounterSet:
    """A dataclass of integer counters mirrored into :data:`REGISTRY`.

    Subclasses declare ``int`` fields and a ``PREFIX``; every increment
    goes through :meth:`bump`, which also bumps ``<PREFIX>.<field>`` in
    the registry, so the ``--metrics-out`` export always agrees with the
    per-instance view.
    """

    PREFIX: ClassVar[str] = ""

    def bump(self, name: str, n: int = 1) -> None:
        setattr(self, name, getattr(self, name) + n)
        REGISTRY.inc(f"{self.PREFIX}.{name}", n)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.to_dict().items())
