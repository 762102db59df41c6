"""Pipeline-wide observability: logging, tracing, metrics, telemetry.

Five small, dependency-free layers every pipeline stage reports through:

- :mod:`repro.obs.log` — structured, rate-limit-safe logging (human or
  JSONL) on stdlib ``logging``;
- :mod:`repro.obs.trace` — nested wall-clock spans exported as
  Chrome-trace JSON, propagated from worker processes;
- :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges, and histogram timers, exported as one JSON document;
- :mod:`repro.obs.telemetry` — bounded streaming histograms, the live
  flight-recorder sampler for the serving engine (per-interval JSONL
  deltas + Prometheus text exposition), read by ``repro stats``;
- :mod:`repro.obs.manifest` — run manifests tying every output artifact
  (by content digest) to the configuration that produced it.

All of it is observability-only: no RNG use, no influence on numeric
results, near-zero cost when disabled.
"""

from __future__ import annotations

from repro.obs.log import configure as configure_logging, get_logger
from repro.obs.metrics import REGISTRY as metrics
from repro.obs.trace import span, traced

__all__ = [
    "configure_logging",
    "get_logger",
    "metrics",
    "span",
    "traced",
    "worker_init",
]


def worker_init() -> None:
    """Reset per-process observability state inside a fresh pool worker."""
    from repro.obs import log, trace

    log.worker_init()
    trace.worker_init()
    metrics.reset()
