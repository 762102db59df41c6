"""The paper's experiment protocols.

``run_table1`` implements the full Table I procedure for one application:

1. collect slowest-task traces at the training core counts (96/384/1536
   for SPECFEM3D; 1024/2048/4096 for UH3D),
2. extrapolate to the target count (6144 / 8192),
3. *also* collect a real trace at the target count,
4. predict the runtime with both traces,
5. measure the "real" runtime via the ground-truth simulator,
6. report predicted runtimes and % errors for both trace types.

``collect_training_traces`` is its collection half on its own; the
model registry fits through it.  The what-if sweep over many target
core counts is the DAG's what-if arm (:mod:`repro.pipeline.dag`:
``extrapolate:*`` -> ``predict:extrap:*`` -> ``report:whatif``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.apps.base import AppModel
from repro.core.canonical import CanonicalForm, PAPER_FORMS
from repro.core.errors import abs_rel_error
from repro.core.extrapolate import ExtrapolationResult
from repro.exec.resilience import RunReport
from repro.exec.sigcache import SignatureCache
from repro.guard.config import GuardConfig
from repro.guard.degrade import DegradationReport
from repro.guard.engine import check_prediction_inputs, guarded_extrapolate
from repro.machine.systems import STORE_DIR, get_machine, get_spec
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.pipeline.collect import CollectionSettings, collect_signatures
from repro.pipeline.predict import measure_runtime, predict_runtime
from repro.psins.ground_truth import GroundTruthConfig
from repro.trace.tracefile import TraceFile

log = get_logger("pipeline.experiment")


@dataclass(frozen=True)
class Table1Config:
    """Experiment knobs for :func:`run_table1`."""

    machine: str = "blue_waters_p1"
    forms: Sequence[CanonicalForm] = PAPER_FORMS
    collection: CollectionSettings = field(default_factory=CollectionSettings)
    ground_truth: GroundTruthConfig = field(default_factory=GroundTruthConfig)
    #: probe budget for the machine profile (MultiMAPS)
    accesses_per_probe: int = 100_000
    #: optional on-disk signature memoization (None = collect fresh)
    cache: Optional[SignatureCache] = None
    #: stage-boundary guardrails (None = off, the library default; the
    #: CLI defaults to policy "degrade")
    guard: Optional[GuardConfig] = None


@dataclass
class Table1Row:
    """One row of Table I."""

    app: str
    core_count: int
    trace_type: str  # "Extrap." or "Coll."
    predicted_runtime_s: float
    measured_runtime_s: float

    @property
    def pct_error(self) -> float:
        return 100.0 * abs_rel_error(self.measured_runtime_s, self.predicted_runtime_s)


@dataclass
class Table1Result:
    """Rows plus every intermediate artifact (for deeper analysis)."""

    rows: List[Table1Row]
    training_traces: List[TraceFile]
    extrapolation: ExtrapolationResult
    collected_trace: TraceFile
    measured_runtime_s: float
    #: recovery events observed during collection (empty when clean)
    run_report: RunReport = field(default_factory=RunReport)
    #: everything the guards observed and did (clean when guards off)
    degradation: DegradationReport = field(default_factory=DegradationReport)

    def extrap_vs_collected_gap(self) -> float:
        """Relative gap between the two predictions (paper: negligible)."""
        extrap = next(r for r in self.rows if r.trace_type == "Extrap.")
        coll = next(r for r in self.rows if r.trace_type == "Coll.")
        return abs_rel_error(coll.predicted_runtime_s, extrap.predicted_runtime_s)


def run_table1(
    app: AppModel,
    train_counts: Sequence[int],
    target_count: int,
    config: Optional[Table1Config] = None,
    *,
    degradation: Optional[DegradationReport] = None,
) -> Table1Result:
    """Run the Table I protocol for one application.

    ``degradation`` optionally supplies the guard ledger to accumulate
    into (so a caller keeps the partial record when a ``strict`` run
    refuses mid-protocol); one is created when omitted.
    """
    config = config or Table1Config()
    log.info(
        "table1: app=%s train=%s target=%d machine=%s",
        app.name,
        list(train_counts),
        target_count,
        config.machine,
    )
    # a run with a signature cache keeps the machine profile next to it
    machine = get_machine(
        config.machine,
        accesses_per_probe=config.accesses_per_probe,
        root=None if config.cache is None else config.cache.root / STORE_DIR,
    )
    spec = get_spec(config.machine)

    # one target job: its collected trace is the expensive one the
    # methodology is designed to avoid — gathered anyway to evaluate it
    # (Table I's "Coll." rows) — and both predictions and the ground
    # truth replay it
    target_job = app.build_job(target_count)

    # 1+3. signatures at every core count — the three training runs and
    # the target run are independent, so they are collected as one batch
    # (concurrently when the pool allows, memoized per unit when a cache
    # is set)
    report = RunReport()
    counts = sorted(train_counts) + [target_count]
    signatures = collect_signatures(
        app,
        counts,
        spec.hierarchy,
        config.collection,
        jobs={target_count: target_job},
        cache=config.cache,
        report=report,
    )
    training: List[TraceFile] = [
        sig.slowest_trace() for sig in signatures[:-1]
    ]
    collected = signatures[-1].slowest_trace()

    # 2. extrapolate to the target core count (guarded when configured)
    if degradation is None:
        degradation = (
            DegradationReport.for_config(config.guard)
            if config.guard is not None
            else DegradationReport(policy="off")
        )
    with span("fit.extrapolate", app=app.name, target=target_count):
        extrapolation, degradation = guarded_extrapolate(
            training,
            target_count,
            forms=config.forms,
            config=config.guard,
            report=degradation,
        )

    # the guarded engine validated the extrapolated trace as its
    # postcondition; the collected target trace and the machine profile
    # enter prediction unvetted, so they get their boundary check here
    if config.guard is not None and config.guard.enabled:
        check_prediction_inputs(
            collected, machine, config=config.guard, report=degradation
        )

    # 4. predictions with both trace types (sharing the replayed job)
    pred_extrap = predict_runtime(
        app, target_count, extrapolation.trace, machine, job=target_job
    )
    pred_coll = predict_runtime(
        app, target_count, collected, machine, job=target_job
    )

    # 5. ground truth
    measured = measure_runtime(
        app, target_count, spec, config=config.ground_truth, job=target_job
    )

    rows = [
        Table1Row(
            app=app.name,
            core_count=target_count,
            trace_type="Extrap.",
            predicted_runtime_s=pred_extrap.runtime_s,
            measured_runtime_s=measured.runtime_s,
        ),
        Table1Row(
            app=app.name,
            core_count=target_count,
            trace_type="Coll.",
            predicted_runtime_s=pred_coll.runtime_s,
            measured_runtime_s=measured.runtime_s,
        ),
    ]
    return Table1Result(
        rows=rows,
        training_traces=training,
        extrapolation=extrapolation,
        collected_trace=collected,
        measured_runtime_s=measured.runtime_s,
        run_report=report,
        degradation=degradation,
    )


def collect_training_traces(
    app: AppModel,
    train_counts: Sequence[int],
    config: Optional[Table1Config] = None,
    *,
    report: Optional[RunReport] = None,
) -> List[TraceFile]:
    """Collect the slowest-task training series for an extrapolation.

    The collection half of :func:`run_table1` on its own — useful when
    the same training series feeds many downstream sweeps (Tables
    II/III) and re-collecting per experiment would dominate.
    """
    config = config or Table1Config()
    signatures = collect_signatures(
        app,
        sorted(train_counts),
        get_spec(config.machine).hierarchy,
        config.collection,
        cache=config.cache,
        report=report,
    )
    return [sig.slowest_trace() for sig in signatures]
