"""Prediction-as-a-service: answer what-if queries from fitted models.

The offline pipeline fits a model once per (app, machine, training
series); everything downstream — Tables II/III sweeps, capacity
planning, interactive what-ifs — is *evaluation* of that fit, which
:meth:`~repro.core.fitting.BatchedFitReport.predict_many` performs for
many targets in one array pass.  This package turns that asymmetry into
a service:

- :mod:`repro.serve.registry` — fitted models keyed by content digest,
  persisted in a verified content-addressed store, LRU-cached in memory;
- :mod:`repro.serve.batcher` — micro-batching of compatible concurrent
  queries (size/deadline flush, per-query fan-out);
- :mod:`repro.serve.engine` — the asyncio front-end: admission control,
  per-tenant fair queueing, batched execution;
- :mod:`repro.serve.loadgen` — replayable keyed-RNG synthetic load for
  benchmarking the above;
- :mod:`repro.serve.resilience` — the serving fault discipline:
  per-model circuit breakers, the :class:`ServeReport` recovery tally,
  and the worker-offload replay task.

See DESIGN.md §7.9 for the keying, batching-window, and fairness
semantics, §7.10 for the serve fault model, and ``repro serve --help``
for the CLI.
"""

from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.serve.engine import (
    Answer,
    EngineStats,
    Query,
    QueryEngine,
    ServeConfig,
)
from repro.serve.loadgen import (
    LoadReport,
    LoadSpec,
    run_load,
    synthetic_queries,
)
from repro.serve.registry import (
    FittedModel,
    ModelRegistry,
    ModelSpec,
    RegistryStats,
    fit_model,
)
from repro.serve.resilience import CircuitBreaker, ServeReport

__all__ = [
    "Answer",
    "BatcherStats",
    "CircuitBreaker",
    "EngineStats",
    "FittedModel",
    "LoadReport",
    "LoadSpec",
    "MicroBatcher",
    "ModelRegistry",
    "ModelSpec",
    "Query",
    "QueryEngine",
    "RegistryStats",
    "ServeConfig",
    "ServeReport",
    "fit_model",
    "run_load",
    "synthetic_queries",
]
