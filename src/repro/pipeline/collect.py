"""Signature collection workflow.

One call = one application run at one core count on the (simulated) base
system with PEBIL probes attached: profile all tasks cheaply, pick the
ranks to trace, and run each traced rank's address stream through the
target system's cache simulator (Fig. 2).

Collection is embarrassingly parallel at two levels — across traced
ranks within a run, and across core counts within an experiment — and
every trace draws its randomness from a keyed RNG stream, so both
levels fan out over :func:`repro.exec.resilience.run_tasks_resilient`
with bit-for-bit serial-identical results.  ``CollectionSettings``
carries its policy (timeouts, retries, pool restart, serial fallback),
which cannot change results: tasks are pure functions of their
arguments.  A :class:`repro.exec.sigcache.SignatureCache`
short-circuits recollection entirely, and an interrupted sweep resumes
through it: each ``(app, count)`` unit is cached the moment it
completes, so re-running with the same cache collects only the
unfinished units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Union

from repro.apps.base import AppModel
from repro.cache.hierarchy import CacheHierarchy
from repro.exec import faults
from repro.exec.resilience import ResilienceConfig, RunReport, run_tasks_resilient
from repro.exec.sigcache import SignatureCache
from repro.instrument.collector import CollectorConfig, collect_trace
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.simmpi.profiler import profile_job
from repro.simmpi.runtime import Job
from repro.trace.signature import ApplicationSignature
from repro.trace.tracefile import TraceFile
from repro.util.errors import CollectionError
from repro.util.rng import stream

log = get_logger("pipeline.collect")


@dataclass(frozen=True)
class CollectionSettings:
    """What and how to trace.

    ``ranks`` selects which tasks get full traces: the string
    ``"slowest"`` (the paper's choice), ``"all"`` (needed by the
    clustering extension), or an explicit list of rank ids.

    ``workers`` sizes the process pool used for rank/count fan-out:
    ``None`` = one per CPU, ``0``/``1`` = serial (the escape hatch).
    ``resilience`` is the fan-out's timeout/retry policy.  Both are
    execution mechanics, not collection identity, so they are excluded
    from cache keys.
    """

    ranks: Union[str, Sequence[int]] = "slowest"
    collector: CollectorConfig = field(default_factory=CollectorConfig)
    workers: Optional[int] = None
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)


def task_key(app_name: str, n_ranks: int, rank: Optional[int] = None) -> str:
    """Stable task key for fault plans / retry backoff / error context."""
    base = f"collect:{app_name}:{n_ranks}"
    return base if rank is None else f"{base}:rank{rank}"


def _collect_rank_trace(
    app: AppModel,
    rank: int,
    n_ranks: int,
    hierarchy: CacheHierarchy,
    collector: CollectorConfig,
) -> TraceFile:
    """Trace one rank.  Module-level and argument-complete so it can run
    in a pool worker; the serial path calls the same function, which is
    what makes parallel/serial identity trivial."""
    with span("collect.rank", app=app.name, rank=rank, n_ranks=n_ranks):
        program = app.rank_program(rank, n_ranks)
        trace = collect_trace(
            program,
            hierarchy,
            app=app.name,
            rank=rank,
            n_ranks=n_ranks,
            config=collector,
            rng=stream("collect", app.name, n_ranks, rank, hierarchy.name),
        )
        # fault-injection hook: a planned poison-trace spec overwrites
        # one element here, where a real probe bug would corrupt it
        return faults.poison_trace(trace, task_key(app.name, n_ranks, rank))


def collect_signature(
    app: AppModel,
    n_ranks: int,
    hierarchy: CacheHierarchy,
    settings: Optional[CollectionSettings] = None,
    *,
    job: Optional[Job] = None,
    cache: Optional[SignatureCache] = None,
    report: Optional[RunReport] = None,
) -> ApplicationSignature:
    """Collect an application signature at one core count.

    Parameters
    ----------
    app:
        The application proxy.
    n_ranks:
        Core count of the run.
    hierarchy:
        *Target-system* hierarchy the hit rates are simulated against.
    settings:
        Rank selection, collector knobs, pool size, and retry policy.
    job:
        Pre-built job (to avoid rebuilding when the caller also replays).
    cache:
        Optional on-disk memoization; hits skip collection entirely.
    report:
        Resilience report to accumulate recovery events into.
    """
    settings = settings or CollectionSettings()
    key = None
    if cache is not None:
        if report is not None:
            cache.bind_report(report)
        key = cache.key_for(app, n_ranks, hierarchy, settings)
        cached = cache.get(key)
        if cached is not None:
            log.debug("signature cache hit: %s n=%d", app.name, n_ranks)
            return cached
        log.debug("signature cache miss: %s n=%d", app.name, n_ranks)
    if job is None:
        job = app.build_job(n_ranks)
    elif job.n_ranks != n_ranks:
        raise CollectionError(
            f"supplied job has {job.n_ranks} ranks, expected {n_ranks}",
            stage="collect",
            task_key=task_key(app.name, n_ranks),
        )
    with span("collect.profile", app=app.name, n_ranks=n_ranks):
        profile = profile_job(
            job, app.program_factory(n_ranks), app.equivalence_classes(n_ranks)
        )
    if settings.ranks == "slowest":
        trace_ranks: List[int] = [profile.slowest_rank()]
    elif settings.ranks == "all":
        trace_ranks = list(range(n_ranks))
    else:
        trace_ranks = sorted(set(int(r) for r in settings.ranks))
        bad = [r for r in trace_ranks if not 0 <= r < n_ranks]
        if bad:
            raise CollectionError(
                f"trace ranks out of range: {bad}",
                stage="collect",
                task_key=task_key(app.name, n_ranks),
            )
    signature = ApplicationSignature(
        app=app.name,
        n_ranks=n_ranks,
        target=hierarchy.name,
        compute_times=dict(profile.compute_times_s),
    )
    with span(
        "collect.signature",
        app=app.name,
        n_ranks=n_ranks,
        traced_ranks=len(trace_ranks),
    ):
        traces, _ = run_tasks_resilient(
            _collect_rank_trace,
            [
                (app, rank, n_ranks, hierarchy, settings.collector)
                for rank in trace_ranks
            ],
            keys=[task_key(app.name, n_ranks, rank) for rank in trace_ranks],
            workers=settings.workers,
            config=settings.resilience,
            report=report,
            stage="collect",
        )
    for trace in traces:
        signature.add_trace(trace)
    if cache is not None:
        cache.put(key, signature)
    return signature


def _collect_signature_task(
    app: AppModel,
    n_ranks: int,
    hierarchy: CacheHierarchy,
    settings: CollectionSettings,
    job: Optional[Job] = None,
) -> ApplicationSignature:
    """One core count's collection, for pool submission (the nested
    rank-level pool degrades to serial inside a worker)."""
    return collect_signature(app, n_ranks, hierarchy, settings, job=job)


def collect_signatures(
    app: AppModel,
    counts: Sequence[int],
    hierarchy: CacheHierarchy,
    settings: Optional[CollectionSettings] = None,
    *,
    jobs: Optional[Mapping[int, Job]] = None,
    cache: Optional[SignatureCache] = None,
    report: Optional[RunReport] = None,
) -> List[ApplicationSignature]:
    """Collect signatures for several core counts, fanned out as a batch.

    Cache lookups happen in the parent so warm entries never reach the
    pool; only the misses are (re)collected — concurrently when
    ``settings.workers`` allows — then stored.  Results are returned in
    ``counts`` order.  Each signature is cached the moment it lands
    (in completion order, not batch order), so a killed run re-run
    with the same cache re-collects only the unfinished counts.
    ``jobs`` maps a core count to its pre-built job, passed on to
    :func:`collect_signature`; a cache hit leaves it unused.
    """
    settings = settings or CollectionSettings()
    jobs = jobs or {}
    if cache is not None and report is not None:
        cache.bind_report(report)
    results: List[Optional[ApplicationSignature]] = [None] * len(counts)
    missing: List[int] = []
    for i, count in enumerate(counts):
        cached = None
        if cache is not None:
            cached = cache.get(cache.key_for(app, count, hierarchy, settings))
        if cached is not None:
            results[i] = cached
        else:
            missing.append(i)

    def _store(j: int, sig: ApplicationSignature) -> None:
        i = missing[j]
        results[i] = sig
        if cache is not None:
            cache.put(
                cache.key_for(app, counts[i], hierarchy, settings), sig
            )

    log.info(
        "collecting %s: %d/%d counts cached, %d to collect",
        app.name,
        len(counts) - len(missing),
        len(counts),
        len(missing),
    )
    with span(
        "collect.signatures",
        app=app.name,
        counts=len(counts),
        missing=len(missing),
    ):
        run_tasks_resilient(
            _collect_signature_task,
            [(app, counts[i], hierarchy, settings, jobs.get(counts[i]))
             for i in missing],
            keys=[task_key(app.name, counts[i]) for i in missing],
            workers=settings.workers,
            config=settings.resilience,
            report=report,
            on_result=_store,
            stage="collect",
        )
    return results
