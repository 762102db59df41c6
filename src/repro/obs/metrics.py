"""Process-local metrics registry: counters, gauges, histogram timers.

One global :data:`REGISTRY` absorbs every tally the pipeline produces —
the signature cache's hit/miss/store/corrupt counts, the resilient
executor's recovery events, per-stage wall-clock timers, cache-simulator
throughput counters — and exports them as one JSON document
(``--metrics-out metrics.json``).  It is the only place a count or a
duration is recorded:

- every per-instance tally (:class:`repro.exec.sigcache.CacheStats`,
  :class:`repro.exec.resilience.RunReport`,
  :class:`repro.serve.resilience.ServeReport`, the serving engine's and
  batcher's stats, ...) is a :class:`CounterSet`, whose :meth:`bump
  <CounterSet.bump>` also bumps ``<PREFIX>.<field>`` here, so the
  exported counters equal the per-instance views by construction;
- every timer is a :class:`~repro.obs.telemetry.StreamingHistogram`:
  O(1) memory, exact ``count``/``sum``/``max``, quantiles within about
  ``1 / SUBBUCKETS`` relative error.

Everything here is observability-only: no RNG, no influence on any
numeric pipeline output, and cheap enough (dict updates) to stay always
on.  Worker processes get a fresh registry
(:func:`repro.obs.worker_init`) and ship their deltas back to the parent
in each attempt's reply (see :mod:`repro.obs.trace`), where
:meth:`MetricsRegistry.merge` folds them in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar, Dict, Union

from repro.obs.telemetry import StreamingHistogram


def timer_summary(hist: StreamingHistogram) -> Dict[str, float]:
    """The exported view of one timer: exact count/sum/max plus
    histogram quantiles."""
    return {
        "count": hist.count,
        "sum_s": hist.total,
        "p50_s": hist.quantile(0.50),
        "p95_s": hist.quantile(0.95),
        "p99_s": hist.quantile(0.99),
        "max_s": hist.max_value if hist.count else 0.0,
    }


class MetricsRegistry:
    """Counters, gauges, and histogram timers for one process.

    Counter/gauge/timer names are free-form dotted strings
    (``cache.hits``, ``replay.jobs``, ``fit.series_s``); the registry
    creates them on first touch.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Union[int, float]] = {}
        self.gauges: Dict[str, float] = {}
        self.timers: Dict[str, StreamingHistogram] = {}

    def inc(self, name: str, n: Union[int, float] = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        hist = self.timers.get(name)
        if hist is None:
            hist = self.timers[name] = StreamingHistogram()
        hist.observe(seconds)

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
        """Fold a :meth:`drain` snapshot (e.g. from a pool worker) in."""
        for name, n in snapshot.get("counters", {}).items():
            self.inc(name, n)
        self.gauges.update(snapshot.get("gauges", {}))
        for name, shipped in snapshot.get("timers", {}).items():
            self.timers.setdefault(name, StreamingHistogram()).merge(
                StreamingHistogram.from_dict(shipped)
            )

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The exported document: plain counters/gauges + timer summaries."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": {
                name: timer_summary(self.timers[name])
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
    """A dataclass tally whose ``int`` fields are counters mirrored into
    :data:`REGISTRY`.

    Subclasses declare a ``PREFIX`` and their counters as ``int``
    fields; every increment goes through :meth:`bump`, which also bumps
    ``<PREFIX>.<field>`` in the registry, so the ``--metrics-out``
    export always agrees with the per-instance view.  Other fields
    (event lists, a nested tally) ride along in :meth:`to_dict` but are
    not counters.
    """

    PREFIX: ClassVar[str] = ""

    def bump(self, name: str, n: int = 1) -> None:
        setattr(self, name, getattr(self, name) + n)
        REGISTRY.inc(f"{self.PREFIX}.{name}", n)

    def counters(self) -> Dict[str, int]:
        """Every counter (``int`` field) and its value, in field order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.type in (int, "int")
        }

    @property
    def clean(self) -> bool:
        """True while no counter, a nested tally's included, has moved."""
        return not any(self.counters().values()) and all(
            value.clean
            for value in vars(self).values()
            if isinstance(value, CounterSet)
        )

    def to_dict(self) -> dict:
        """JSON view: every field, lists copied, nested tallies expanded."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, CounterSet):
                value = value.to_dict()
            elif isinstance(value, list):
                value = list(value)
            doc[f.name] = value
        return doc

    def __str__(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.counters().items())
