"""Live serving telemetry: streaming histograms and a flight recorder.

The batch pipeline's observability (:mod:`repro.obs.metrics`,
:mod:`repro.obs.trace`) summarizes once, at exit.  A long-running
``repro serve`` process needs the opposite: bounded-memory aggregates
that can be sampled *while the process runs*.  This module provides the
three pieces:

- :class:`StreamingHistogram` — a fixed log2-bucket histogram (each
  octave split into :data:`SUBBUCKETS` linear sub-buckets, sparse dict
  storage).  O(1) memory regardless of stream length, exact ``count`` /
  ``sum`` / ``min`` / ``max``, mergeable across processes, and
  bucket-interpolated quantiles with bounded relative error
  (about ``1 / SUBBUCKETS``).  Every registry timer
  (:meth:`repro.obs.metrics.MetricsRegistry.observe`) is one of these.
- :class:`TelemetrySampler` — a periodic asyncio task that snapshots
  the metrics registry (and, when attached, a
  :class:`~repro.serve.engine.QueryEngine`) every interval and appends
  one JSON line per interval to a **flight recorder** file.  Counter
  and histogram fields are *per-interval deltas*: integer counters
  telescope, so summing a field over all records reproduces the
  end-of-run total exactly.  Each tick also probes event-loop lag
  (scheduled-vs-actual wake time) and drains a top-N
  :class:`SlowQueryLog`.  A final record is written on :meth:`stop`,
  after the engine has drained, so the recorder always accounts for
  every query.
- :func:`write_prometheus` — text-exposition rendering of the same
  registry state (cumulative, not deltas), atomically replaced each
  interval so a scraper never reads a torn file.

Reading the recorder back (:func:`read_flight_records`) tolerates a
torn final line — the file may be read mid-run or after a kill — and
:func:`stats_doc` digests the records into the document that
``repro stats`` renders.  Everything here
is observability-only: no RNG, no influence on any served answer, and
clock reads are injectable so snapshot tests run on a fake clock.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.util.errors import ReproError

#: flight-recorder format version, stamped into every record
TELEMETRY_SCHEMA_VERSION = 1

#: slowest queries each flight-recorder record lists (top-N per interval)
SLOW_QUERIES = 8

#: linear sub-buckets per power-of-two octave; the max relative width of
#: one bucket — and so the quantile interpolation error bound — is 1/16
SUBBUCKETS = 16

#: smallest/largest representable octave: 2^-40 s (~1 ps) .. 2^24 s
#: (~194 days).  Values below fold into the zero bucket, values above
#: clamp into the top bucket; both remain exactly counted and summed.
MIN_EXP = -40
MAX_EXP = 24

_N_BUCKETS = (MAX_EXP - MIN_EXP) * SUBBUCKETS


def bucket_index(value: float) -> int:
    """Map one observation to its bucket: 0 is the zero bucket, then
    ``1 + (octave - MIN_EXP) * SUBBUCKETS + sub`` for positive values."""
    if value <= 0.0:
        return 0
    m, e = math.frexp(value)  # value = m * 2**e with m in [0.5, 1)
    e -= 1  # value = (2m) * 2**e with 2m in [1, 2)
    if e < MIN_EXP:
        return 0
    if e >= MAX_EXP:
        return _N_BUCKETS  # the last real bucket
    sub = int((2.0 * m - 1.0) * SUBBUCKETS)
    if sub >= SUBBUCKETS:  # float edge: m rounded up to 1.0
        sub = SUBBUCKETS - 1
    return 1 + (e - MIN_EXP) * SUBBUCKETS + sub


def bucket_bounds(index: int) -> tuple:
    """(lower, upper) value bounds of one bucket index."""
    if index <= 0:
        return 0.0, 2.0 ** MIN_EXP
    index -= 1
    e = MIN_EXP + index // SUBBUCKETS
    sub = index % SUBBUCKETS
    scale = 2.0 ** e
    return (
        scale * (1.0 + sub / SUBBUCKETS),
        scale * (1.0 + (sub + 1) / SUBBUCKETS),
    )


class StreamingHistogram:
    """Bounded log2-bucket histogram: O(1) memory, mergeable, exact tails.

    ``count``/``total``/``min_value``/``max_value`` are exact;
    quantiles interpolate linearly inside the covering bucket and are
    clamped to the observed range, so the relative error is bounded by
    the bucket width (about ``1 / SUBBUCKETS``) and p0/p100 are exact.
    """

    __slots__ = ("buckets", "count", "total", "min_value", "max_value")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile (q in [0, 1]); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        q = min(max(float(q), 0.0), 1.0)
        if q == 0.0:
            return self.min_value
        if q == 1.0:
            return self.max_value
        rank = q * (self.count - 1)
        cum = 0
        for idx in sorted(self.buckets):
            n = self.buckets[idx]
            if rank < cum + n:
                lo, hi = bucket_bounds(idx)
                lo = max(lo, self.min_value)
                hi = min(hi, self.max_value)
                frac = (rank - cum + 0.5) / n
                value = lo + frac * (hi - lo)
                return min(max(value, self.min_value), self.max_value)
            cum += n
        return self.max_value

    def merge(self, other: "StreamingHistogram") -> None:
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def to_dict(self) -> dict:
        """JSON form; bucket keys become strings, empty extrema None."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value if self.count else None,
            "max": self.max_value if self.count else None,
            "buckets": {
                str(idx): n for idx, n in sorted(self.buckets.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StreamingHistogram":
        hist = cls()
        hist.count = int(doc["count"])
        hist.total = float(doc["sum"])
        if doc.get("min") is not None:
            hist.min_value = float(doc["min"])
        if doc.get("max") is not None:
            hist.max_value = float(doc["max"])
        hist.buckets = {
            int(idx): int(n) for idx, n in doc.get("buckets", {}).items()
        }
        return hist


def hist_delta(cur: dict, prev: Optional[dict]) -> Optional[dict]:
    """Per-interval histogram delta between two :meth:`to_dict` snapshots.

    Bucket counts and ``count``/``sum`` subtract (they telescope back to
    the cumulative totals); ``min``/``max`` stay cumulative — they are
    clamps for interval quantile reconstruction, not interval extrema.
    Returns ``None`` when nothing was observed in the interval.
    """
    if prev is None:
        return cur if cur["count"] else None
    dcount = cur["count"] - prev["count"]
    if dcount <= 0:
        return None
    buckets = {}
    prev_buckets = prev.get("buckets", {})
    for idx, n in cur.get("buckets", {}).items():
        dn = n - prev_buckets.get(idx, 0)
        if dn:
            buckets[idx] = dn
    return {
        "count": dcount,
        "sum": cur["sum"] - prev["sum"],
        "min": cur["min"],
        "max": cur["max"],
        "buckets": buckets,
    }


class SlowQueryLog:
    """Top-N slowest queries since the last drain (bounded min-heap)."""

    def __init__(self, n: int = 8):
        self.n = int(n)
        self._heap: List[tuple] = []
        self._tick = 0

    def record(self, latency_s: float, **info: Any) -> None:
        if self.n <= 0:
            return
        item = (float(latency_s), self._tick, info)
        self._tick += 1
        if len(self._heap) < self.n:
            heapq.heappush(self._heap, item)
        elif item[0] > self._heap[0][0]:
            heapq.heapreplace(self._heap, item)

    def drain(self) -> List[dict]:
        """Slowest-first entries, then reset for the next interval."""
        items = sorted(self._heap, reverse=True)
        self._heap = []
        return [
            {"latency_ms": round(latency * 1e3, 3), **info}
            for latency, _, info in items
        ]


@dataclass
class TelemetryConfig:
    """Sampler knobs: tick interval and artifact destinations."""

    interval_s: float = 1.0
    out: Optional[Union[str, Path]] = None  #: flight-recorder JSONL path
    prom_out: Optional[Union[str, Path]] = None  #: Prometheus text path

    def __post_init__(self):
        if not self.interval_s > 0:
            raise ReproError(
                f"telemetry interval must be positive, got "
                f"{self.interval_s}",
                stage="telemetry",
            )


class TelemetrySampler:
    """Periodic registry/engine snapshots to a JSONL flight recorder.

    Every tick emits one record of *per-interval deltas* (counters and
    histograms) plus current gauges, breaker states, the breaker
    transitions that happened inside the interval, event-loop lag, and
    the interval's slowest queries.  Counter deltas telescope: summing
    any counter field across all records (including the final record
    written by :meth:`stop`) equals its end-of-run registry value
    exactly.

    ``clock``/``wall_clock`` are injectable so tests drive a fake
    clock; :meth:`sample` is callable directly for synchronous use.
    """

    def __init__(
        self,
        engine: Any = None,
        config: Optional[TelemetryConfig] = None,
        *,
        registry: Any = None,
        clock=time.perf_counter,
        wall_clock=time.time,
    ):
        if registry is None:
            from repro.obs.metrics import REGISTRY as registry
        self.engine = engine
        self.config = config or TelemetryConfig()
        self.registry = registry
        self.slow = SlowQueryLog(SLOW_QUERIES)
        self.records_written = 0
        self._clock = clock
        self._wall = wall_clock
        self._seq = 0
        self._t0: Optional[float] = None
        self._last: Optional[float] = None
        self._prev_counters: Dict[str, Union[int, float]] = {}
        self._prev_hists: Dict[str, dict] = {}
        self._prev_transitions = 0
        self._fh = None
        self._task = None
        self._stop_event = None

    # -- engine hook ----------------------------------------------------

    def record_query(self, q: Any, latency_s: float) -> None:
        """Called by the engine per answered query (only while attached)."""
        self.slow.record(
            latency_s,
            tenant=q.tenant,
            target=int(q.target),
            kind=q.kind,
            model=(q.model or "")[:12],
        )

    # -- sampling -------------------------------------------------------

    def sample(
        self, *, final: bool = False, loop_lag_s: Optional[float] = None
    ) -> dict:
        """Take one snapshot; write it to the recorder; return the record."""
        registry = self.registry
        now = self._clock()
        if self._t0 is None:
            self._t0 = now
        last = self._last if self._last is not None else self._t0
        record: Dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "seq": self._seq,
            "t_s": round(now - self._t0, 6),
            "wall_time": self._wall(),
            "interval_s": round(now - last, 6),
            "final": bool(final),
        }
        if loop_lag_s is not None:
            record["loop_lag_s"] = round(loop_lag_s, 6)
            registry.set_gauge("serve.loop_lag_s", loop_lag_s)

        counters: Dict[str, Union[int, float]] = {}
        for name in sorted(registry.counters):
            delta = registry.counters[name] - self._prev_counters.get(name, 0)
            if delta:
                counters[name] = delta
        self._prev_counters = dict(registry.counters)
        record["counters"] = counters

        record["gauges"] = {
            name: registry.gauges[name] for name in sorted(registry.gauges)
        }

        hists: Dict[str, dict] = {}
        new_prev: Dict[str, dict] = {}
        for name in sorted(registry.timers):
            cur = registry.timers[name].to_dict()
            new_prev[name] = cur
            delta = hist_delta(cur, self._prev_hists.get(name))
            if delta is not None:
                hists[name] = delta
        self._prev_hists = new_prev
        record["hists"] = hists

        if self.engine is not None:
            record["breakers"] = self.engine.breaker_states()
            transitions = self.engine.report.transitions
            record["transitions"] = list(
                transitions[self._prev_transitions:]
            )
            self._prev_transitions = len(transitions)
        slow = self.slow.drain()
        if slow:
            record["slow_queries"] = slow

        if self._fh is None and self.config.out is not None:
            self._fh = self._open(self.config.out)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
            self.records_written += 1
        if self.config.prom_out is not None:
            write_prometheus(self.config.prom_out, registry)

        self._seq += 1
        self._last = now
        return record

    @staticmethod
    def _open(path: Union[str, Path]):
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", encoding="utf-8")

    # -- asyncio lifecycle ----------------------------------------------

    async def start(self) -> None:
        """Attach to the engine and start the periodic sampling task."""
        import asyncio

        if self._task is not None:
            return
        if self.engine is not None:
            self.engine.telemetry = self
        if self._t0 is None:
            self._t0 = self._clock()
        self._stop_event = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="serve-telemetry"
        )

    async def _run(self) -> None:
        import asyncio

        interval = self.config.interval_s
        target = self._clock() + interval
        while True:
            delay = target - self._clock()
            if delay > 0:
                try:
                    await asyncio.wait_for(self._stop_event.wait(), delay)
                except asyncio.TimeoutError:
                    pass
            if self._stop_event.is_set():
                return
            # the loop-lag probe: how late did this tick actually fire?
            now = self._clock()
            self.sample(loop_lag_s=max(0.0, now - target))
            target = self._clock() + interval

    async def stop(self) -> None:
        """Stop ticking and write the final record (call after the
        engine has drained, so the remainder interval closes the books)."""
        if self._task is not None:
            self._stop_event.set()
            await self._task
            self._task = None
        if (
            self.engine is not None
            and getattr(self.engine, "telemetry", None) is self
        ):
            self.engine.telemetry = None
        self.sample(final=True)
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- flight-recorder reading -------------------------------------------


def read_flight_records(
    path: Union[str, Path], *, strict: bool = False
) -> List[dict]:
    """Load a flight-recorder JSONL file, tolerating a torn final line.

    The recorder may be read mid-run or after a kill: a final line cut
    off mid-write is silently dropped.  A malformed line anywhere
    *else* is corruption, not a torn tail, and always raises;
    ``strict=True`` makes the tail strict too.
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(
            f"telemetry file not found: {path}", stage="telemetry"
        )
    lines = path.read_text(encoding="utf-8").splitlines()
    records: List[dict] = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if i == len(lines) - 1 and not strict:
                break  # torn tail: a live or killed writer
            raise ReproError(
                f"telemetry record on line {i + 1} of {path} is not "
                f"valid JSON",
                stage="telemetry",
            ) from None
        if isinstance(record, dict):
            records.append(record)
    return records


def sum_counters(records: List[dict]) -> Dict[str, Union[int, float]]:
    """Telescoped totals: per-interval counter deltas summed back up."""
    totals: Dict[str, Union[int, float]] = {}
    for record in records:
        for name, delta in record.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + delta
    return totals


def merged_hist(records: List[dict], name: str) -> StreamingHistogram:
    """Fold one timer's per-interval deltas back into one histogram."""
    out = StreamingHistogram()
    for record in records:
        doc = record.get("hists", {}).get(name)
        if doc:
            out.merge(StreamingHistogram.from_dict(doc))
    return out


def stats_doc(records: List[dict], top: int) -> Dict[str, Any]:
    """Digest a flight-recorder record list into the ``repro stats`` doc:
    telescoped totals, per-tenant rows, a per-interval rate timeline,
    breaker transitions and the ``top`` slowest queries."""
    totals = sum_counters(records)
    tenants: dict = {}
    tenant_fields = ("queries", "answered", "failed", "rejected", "waits")
    for name, value in totals.items():
        parts = name.split(".")
        if name.startswith("serve.tenant.") and len(parts) == 4:
            _, _, fld, tenant = parts
            if fld in tenant_fields:
                row = tenants.setdefault(
                    tenant, {f: 0 for f in tenant_fields}
                )
                row[fld] = value
    timeline = []
    lags = []
    for record in records:
        counters = record.get("counters", {})
        interval = record.get("interval_s", 0.0)
        answered = counters.get("serve.answered", 0)
        entry = {
            "seq": record.get("seq", 0),
            "t_s": record.get("t_s", 0.0),
            "interval_s": interval,
            "answered": answered,
            "qps": round(answered / interval, 1) if interval > 0 else 0.0,
            "final": bool(record.get("final")),
        }
        latency = record.get("hists", {}).get("serve.latency_s")
        if latency:
            hist = StreamingHistogram.from_dict(latency)
            entry["p50_ms"] = round(hist.quantile(0.50) * 1e3, 3)
            entry["p95_ms"] = round(hist.quantile(0.95) * 1e3, 3)
        if "loop_lag_s" in record:
            entry["lag_ms"] = round(record["loop_lag_s"] * 1e3, 3)
            lags.append(record["loop_lag_s"])
        timeline.append(entry)
    slow = sorted(
        (
            entry
            for record in records
            for entry in record.get("slow_queries", [])
        ),
        key=lambda e: -e.get("latency_ms", 0.0),
    )[: max(top, 0)]
    transitions = [
        {"seq": record.get("seq", 0), "t_s": record.get("t_s", 0.0),
         "transition": tag}
        for record in records
        for tag in record.get("transitions", [])
    ]
    lookups = sum(
        totals.get(f"serve.registry.{f}", 0)
        for f in ("mem_hits", "disk_hits", "misses")
    )
    hits = sum(
        totals.get(f"serve.registry.{f}", 0)
        for f in ("mem_hits", "disk_hits")
    )
    batches = totals.get("serve.batch.batches", 0)
    doc = {
        "records": len(records),
        "complete": bool(records and records[-1].get("final")),
        "duration_s": records[-1].get("t_s", 0.0) if records else 0.0,
        "totals": {
            "queries": totals.get("serve.queries", 0),
            "answered": totals.get("serve.answered", 0),
            "failed": totals.get("serve.failed", 0),
            "rejected": totals.get("serve.rejected", 0),
            "memo_hits": totals.get("serve.memo_hits", 0),
            "batches": batches,
            "mean_batch": round(
                totals.get("serve.batch.queries", 0) / batches, 2
            ) if batches else 0.0,
            "registry_hit_rate": round(hits / lookups, 3) if lookups else 0.0,
        },
        "counters": {k: totals[k] for k in sorted(totals)},
        "tenants": {t: tenants[t] for t in sorted(tenants)},
        "timeline": timeline,
        "transitions": transitions,
        "breakers": records[-1].get("breakers", {}) if records else {},
        "slow_queries": slow,
    }
    if lags:
        doc["loop_lag"] = {
            "mean_ms": round(sum(lags) / len(lags) * 1e3, 3),
            "max_ms": round(max(lags) * 1e3, 3),
        }
    return doc


# -- Prometheus text exposition ----------------------------------------

_PROM_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: dotted-name prefixes whose last segment is a label, not metric name
_LABELED = (
    ("serve.queue_depth.", "repro_serve_queue_depth", "tenant"),
    ("serve.inflight.", "repro_serve_inflight", "tenant"),
    ("serve.breaker.", "repro_serve_breaker_state", "model"),
)


def _prom_name(name: str) -> str:
    return "repro_" + _PROM_OK.sub("_", name)


def _prom_split(name: str) -> tuple:
    """(family, labels) for one dotted metric name."""
    for prefix, family, label in _LABELED:
        if name.startswith(prefix) and len(name) > len(prefix):
            return family, {label: name[len(prefix):]}
    if name.startswith("serve.tenant."):
        parts = name.split(".")
        if len(parts) == 4:
            family = f"repro_serve_tenant_{_PROM_OK.sub('_', parts[2])}"
            return family, {"tenant": parts[3]}
    return _prom_name(name), {}


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _prom_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(registry: Any = None) -> str:
    """Registry state as Prometheus text exposition (cumulative)."""
    if registry is None:
        from repro.obs.metrics import REGISTRY as registry
    families: Dict[str, dict] = {}

    def emit(family: str, kind: str, labels: Dict[str, str], value) -> None:
        fam = families.setdefault(family, {"type": kind, "samples": []})
        fam["samples"].append((_prom_labels(labels), value))

    for name in sorted(registry.counters):
        family, labels = _prom_split(name)
        emit(family + "_total", "counter", labels, registry.counters[name])
    for name in sorted(registry.gauges):
        family, labels = _prom_split(name)
        emit(family, "gauge", labels, registry.gauges[name])

    lines: List[str] = []
    for family in sorted(families):
        fam = families[family]
        lines.append(f"# TYPE {family} {fam['type']}")
        for labels, value in fam["samples"]:
            lines.append(f"{family}{labels} {_prom_value(value)}")

    for name in sorted(registry.timers):
        hist = registry.timers[name]
        base = _prom_name(name)
        if base.endswith("_s"):
            base = base[:-2] + "_seconds"
        lines.append(f"# TYPE {base} histogram")
        cum = 0
        for idx in sorted(hist.buckets):
            cum += hist.buckets[idx]
            upper = bucket_bounds(idx)[1]
            lines.append(
                f'{base}_bucket{{le="{format(upper, ".9g")}"}} {cum}'
            )
        lines.append(f'{base}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{base}_sum {_prom_value(hist.total)}")
        lines.append(f"{base}_count {hist.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: Union[str, Path], registry: Any = None) -> str:
    """Atomically replace ``path`` with the current exposition text."""
    from repro.util.atomic import atomic_write_text

    text = render_prometheus(registry)
    atomic_write_text(path, text)
    return text
