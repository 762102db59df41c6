"""Replayable synthetic query-trace load generation.

Load tests are only evidence if they are repeatable: the generator
derives every choice (target, tenant) from the library's keyed RNG
(:func:`repro.util.rng.stream`), so the same :class:`LoadSpec` always
produces the same query trace, independent of how many other streams
exist — re-running a benchmark replays the *identical* load.

Targets are drawn with a Zipf-flavored skew (a few hot what-if targets,
a long tail), which is both the realistic shape for a what-if service
and the interesting one for a micro-batcher: hot targets co-batch,
cold ones ride along in the same window.

:func:`run_load` fires the whole trace as concurrent coroutines,
gathers the answers, and reduces them to a :class:`LoadReport` —
queries/s, latency percentiles, queries per executed batch — also
mirrored into the ``serve.qps`` / ``serve.p95_ms`` gauges.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import REGISTRY
from repro.serve.engine import Answer, Query, QueryEngine
from repro.util.errors import ServeError
from repro.util.rng import DEFAULT_ROOT_SEED, stream


@dataclass(frozen=True)
class LoadSpec:
    """One replayable synthetic load: same spec, same query trace."""

    n_queries: int = 1000
    targets: Tuple[int, ...] = (512, 1024, 2048, 4096, 8192)
    tenants: Tuple[str, ...] = ("tenant0", "tenant1", "tenant2", "tenant3")
    kind: str = "features"
    #: Zipf-ish skew exponent over the target list (0 = uniform)
    skew: float = 1.0
    name: str = "default"
    #: per-query deadline stamped on every generated query (None = none)
    deadline_ms: Optional[float] = None
    #: >1 splits the trace into that many sequential arrival waves
    #: (chaos runs need quiet gaps for breakers to half-open and close)
    waves: int = 1
    wave_interval_s: float = 0.0

    def __post_init__(self):
        if self.n_queries < 1:
            raise ServeError(
                f"n_queries must be >= 1, got {self.n_queries}",
                stage="serve",
            )
        if not self.targets or not self.tenants:
            raise ServeError(
                "load spec needs at least one target and one tenant",
                stage="serve",
            )
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ServeError(
                f"load deadline must be positive, got {self.deadline_ms}",
                stage="serve",
            )
        if self.waves < 1:
            raise ServeError(
                f"waves must be >= 1, got {self.waves}", stage="serve"
            )
        if self.wave_interval_s < 0:
            raise ServeError(
                f"wave interval must be >= 0, got {self.wave_interval_s}",
                stage="serve",
            )


def synthetic_queries(
    spec: LoadSpec,
    *,
    model: Optional[str] = None,
    root: int = DEFAULT_ROOT_SEED,
) -> List[Query]:
    """Materialize the spec's query trace (deterministic in (spec, root))."""
    rng = stream("serve", "loadgen", spec.name, spec.n_queries, root=root)
    weights = 1.0 / np.arange(1, len(spec.targets) + 1) ** spec.skew
    weights /= weights.sum()
    target_idx = rng.choice(len(spec.targets), size=spec.n_queries, p=weights)
    tenant_idx = rng.integers(0, len(spec.tenants), size=spec.n_queries)
    return [
        Query(
            target=int(spec.targets[t]),
            tenant=spec.tenants[u],
            kind=spec.kind,
            model=model,
            deadline_ms=spec.deadline_ms,
        )
        for t, u in zip(target_idx, tenant_idx)
    ]


@dataclass
class LoadReport:
    """What one load run measured."""

    n_queries: int
    wall_s: float
    qps: float
    p50_ms: float
    p95_ms: float
    #: queries per batch the engine executed during the load (its
    #: batcher's tallies, as ``batcher.mean_batch`` of the summary)
    mean_batch: float
    rejected: int
    #: typed non-admission failures (deadline, breaker, serve errors) —
    #: under a fault plan these are results, not load-test bugs
    errors: int = 0
    error_kinds: Dict[str, int] = field(default_factory=dict)
    #: mean ``batch_size`` over the answers, where a memo hit counts 1
    mean_answer_batch: float = 0.0

    def to_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "wall_s": round(self.wall_s, 6),
            "qps": round(self.qps, 3),
            "p50_ms": round(self.p50_ms, 6),
            "p95_ms": round(self.p95_ms, 6),
            "mean_batch": round(self.mean_batch, 3),
            "mean_answer_batch": round(self.mean_answer_batch, 3),
            "rejected": self.rejected,
            "errors": self.errors,
            "error_kinds": dict(self.error_kinds),
        }


async def run_load(
    engine: QueryEngine, queries: Sequence[Query], *, spec: Optional[LoadSpec] = None
) -> Tuple[LoadReport, List[Optional[Answer]]]:
    """Fire a query trace at a started engine; measure the service rate.

    Every query runs as its own coroutine (the all-at-once arrival that
    stresses batching and fairness hardest); with ``spec.waves > 1`` the
    trace is split into that many sequential arrival waves separated by
    ``spec.wave_interval_s`` of quiet — the cadence that lets an opened
    circuit breaker reach its half-open probe and close again under
    observation.  Admission rejections and typed serving errors
    (:class:`~repro.util.errors.ReproError`: deadline expiries, breaker
    sheds, injected faults) are counted, not raised — a load test
    observing the failure machinery it provoked is a result, not a
    failure.  Anything untyped still raises: that is a bug, not load.
    Returns the report plus the per-query answers (``None`` where
    rejected or failed) in submission order.
    """
    if not queries:
        raise ServeError("no queries to run", stage="serve")
    tallies = engine.batcher.stats
    queries0, batches0 = tallies.queries, tallies.batches
    waves = spec.waves if spec is not None else 1
    interval = spec.wave_interval_s if spec is not None else 0.0
    per_wave = (len(queries) + waves - 1) // waves
    t0 = perf_counter()
    outcomes: List[object] = []
    for w in range(waves):
        wave = queries[w * per_wave : (w + 1) * per_wave]
        if not wave:
            break
        if w and interval:
            await asyncio.sleep(interval)
        outcomes.extend(
            await asyncio.gather(
                *(engine.query(q) for q in wave), return_exceptions=True
            )
        )
    wall = perf_counter() - t0
    batched = tallies.queries - queries0
    batches = tallies.batches - batches0
    answers: List[Optional[Answer]] = []
    latencies: List[float] = []
    batch_sizes: List[int] = []
    rejected = 0
    errors = 0
    error_kinds: Dict[str, int] = {}
    for outcome in outcomes:
        if isinstance(outcome, Answer):
            answers.append(outcome)
            latencies.append(outcome.latency_s)
            batch_sizes.append(outcome.batch_size)
        elif isinstance(outcome, BaseException):
            from repro.util.errors import AdmissionError, ReproError

            if isinstance(outcome, AdmissionError):
                rejected += 1
                answers.append(None)
            elif isinstance(outcome, ReproError):
                errors += 1
                kind = type(outcome).__name__
                error_kinds[kind] = error_kinds.get(kind, 0) + 1
                answers.append(None)
            else:
                raise outcome
        else:
            answers.append(None)
    p50, p95 = np.quantile(latencies, (0.50, 0.95)) if latencies else (0.0, 0.0)
    report = LoadReport(
        n_queries=len(queries),
        wall_s=wall,
        qps=len(latencies) / wall if wall > 0 else 0.0,
        p50_ms=float(p50) * 1e3,
        p95_ms=float(p95) * 1e3,
        mean_batch=batched / batches if batches else 0.0,
        rejected=rejected,
        errors=errors,
        error_kinds=error_kinds,
        mean_answer_batch=(
            float(np.mean(batch_sizes)) if batch_sizes else 0.0
        ),
    )
    REGISTRY.set_gauge("serve.qps", report.qps)
    REGISTRY.set_gauge("serve.p95_ms", report.p95_ms)
    return report, answers
