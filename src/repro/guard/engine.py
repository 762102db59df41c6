"""The guarded extrapolation engine and the degradation ladder.

:func:`guarded_extrapolate_many` wraps
:func:`repro.core.extrapolate.extrapolate_trace_many` with the full
guard sequence:

1. **validate** every training trace at the collect→fit boundary;
2. decide per policy: ``strict`` refuses on the first error-or-worse
   violation, ``degrade`` walks the ladder;
3. **sanitize** flagged training entries (replace each invalid value
   with the nearest valid one in the series, preferring the larger
   count) so fitting never sees poison;
4. **fit + synthesize** on the sanitized series;
5. run the **quality gates** (residual, cross-validation, the fitting
   spot check against the scalar oracle — see :mod:`repro.guard.gates`);
6. **hold** each flagged element at its nearest collected value in the
   synthesized output (ladder rung 1), re-monotonizing hit rates;
7. **validate** every synthesized trace as an extrapolated-trace
   postcondition.

Escalations: a training series that is mostly poison
(``max_degraded_fraction``), an element with no valid entries, fewer
than two structurally usable traces, or an inconsistent series degrade
the *whole* synthesized trace to a copy of the largest violation-free
collected trace (rung 2); with no violation-free trace to copy, the
prediction is **refused** (rung 3) — a :class:`GuardError` even under
``degrade``.

Invariant: on violation-free inputs the guarded path returns traces
bit-identical to the unguarded path — validation only reads,
sanitization and holds only touch flagged elements, the spot check
cannot disagree on clean data (the batch path and the oracle agree to
~1e-9, three orders of magnitude inside the tolerance), and advisory
gate flags never modify anything.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.canonical import CanonicalForm, PAPER_FORMS
from repro.core.extrapolate import (
    ExtrapolationResult,
    ExtrapolationSweep,
    extrapolate_trace_many,
)
from repro.guard.config import GuardConfig
from repro.guard.degrade import (
    DegradationReport,
    ElementDegradation,
    TraceDegradation,
)
from repro.guard.gates import (
    crossval_gate,
    residual_gate,
    spot_check_gate,
)
from repro.guard.validators import (
    validate_fit_report,
    validate_machine_profile,
    validate_trace,
)
from repro.guard.violations import GuardError, GuardViolation
from repro.obs.trace import span
from repro.trace.tracefile import TraceFile
from repro.util.errors import FitError

ElementKey = Tuple[int, int, str]  #: (block_id, instr_index, feature)

#: worst training relative residual above which an element is flagged
#: by the residual gate (advisory)
RESIDUAL_THRESHOLD = 0.5


def _refusal_violation(message: str, boundary: str) -> GuardViolation:
    return GuardViolation(
        artifact="prediction",
        boundary=boundary,
        check="refusal",
        message=message,
        severity="fatal",
    )


def _refuse(
    report: DegradationReport,
    message: str,
    violations: Sequence[GuardViolation],
    *,
    boundary: str,
) -> GuardError:
    report.refuse(message)
    evidence = [v for v in violations if v.rank >= 1]
    return GuardError(evidence or [_refusal_violation(message, boundary)])


def _substitute_trace(src: TraceFile, target: int, rank: int) -> TraceFile:
    return src.with_features(
        src.features.copy(), n_ranks=target, rank=rank, extrapolated=True
    )


def _substitute_sweep(
    clean: Sequence[TraceFile],
    targets: Sequence[int],
    rank: int,
    report: DegradationReport,
    reason: str,
    violations: Sequence[GuardViolation],
) -> ExtrapolationSweep:
    """Ladder rung 2 for the whole run: every target gets a copy of the
    largest violation-free collected trace; rung 3 (refusal) with none."""
    if not clean:
        raise _refuse(
            report,
            f"{reason}; no violation-free training trace to substitute",
            violations,
            boundary="collect->fit",
        )
    src = max(clean, key=lambda t: t.n_ranks)
    results = []
    for target in targets:
        report.degrade_trace(
            TraceDegradation(
                target=target,
                action="substitute-collected",
                reason=reason,
                substitute_n_ranks=src.n_ranks,
            )
        )
        results.append(
            ExtrapolationResult(
                trace=_substitute_trace(src, target, rank),
                report=None,
                target_n_ranks=target,
            )
        )
    return ExtrapolationSweep(results=results, report=None, targets=list(targets))


def _nearest_valid(valid: Sequence[int], i: int) -> int:
    """Index of the valid entry nearest to ``i``, larger count on ties."""
    return min(valid, key=lambda v: (abs(v - i), -v))


def guarded_extrapolate_many(
    traces: Sequence[TraceFile],
    targets: Sequence[int],
    *,
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
    rank: int = -1,
    rate_trust_factor: float = 2.0,
    config: Optional[GuardConfig] = None,
    report: Optional[DegradationReport] = None,
) -> Tuple[ExtrapolationSweep, DegradationReport]:
    """Extrapolate with stage-boundary guards and the degradation ladder.

    Same signature and semantics as
    :func:`~repro.core.extrapolate.extrapolate_trace_many`, plus a
    :class:`~repro.guard.config.GuardConfig` (``None`` or policy
    ``"off"`` disables everything) and an optional shared
    :class:`~repro.guard.degrade.DegradationReport` to accumulate into.
    Returns ``(sweep, report)``.
    """
    if config is None or not config.enabled:
        sweep = extrapolate_trace_many(
            traces,
            targets,
            forms=forms,
            rank=rank,
            rate_trust_factor=rate_trust_factor,
        )
        return sweep, (report or DegradationReport(policy="off"))
    report = report or DegradationReport.for_config(config)

    # usage errors stay usage errors — the ladder is for bad *data*
    if len(traces) < 2:
        raise FitError(
            f"need at least 2 training traces, got {len(traces)} "
            "(the paper uses 3)",
            stage="fit",
        )
    targets = [int(t) for t in targets]
    if not targets:
        raise FitError("need at least one target core count", stage="fit")
    for t in targets:
        if t <= 0:
            raise FitError(
                f"target core count must be positive, got {t}", stage="fit"
            )

    with span("guard.validate", boundary="collect->fit", traces=len(traces)):
        ordered = sorted(traces, key=lambda t: t.n_ranks)
        per_trace = [
            validate_trace(t, boundary="collect->fit") for t in ordered
        ]
    all_violations = [v for vs in per_trace for v in vs]
    report.add_violations(all_violations)
    serious = [v for v in all_violations if v.rank >= 1]
    if config.strict and serious:
        raise GuardError(serious)

    clean = [t for t, vs in zip(ordered, per_trace) if not vs]
    usable = [
        t
        for t, vs in zip(ordered, per_trace)
        if not any(v.severity == "fatal" for v in vs)
    ]

    def substitute_all(reason: str) -> ExtrapolationSweep:
        return _substitute_sweep(
            clean, targets, rank, report, reason, all_violations
        )

    if len(usable) < 2:
        return (
            substitute_all(
                f"only {len(usable)} structurally valid training traces"
            ),
            report,
        )

    # flagged entries: (element key) -> set of indices into `usable`
    invalid: Dict[ElementKey, Set[int]] = {}
    index_of = {id(t): i for i, t in enumerate(usable)}
    for t, vs in zip(ordered, per_trace):
        if id(t) not in index_of:
            continue
        for v in vs:
            if v.rank >= 1 and not v.element_addressed:
                return substitute_all(f"trace-level violation: {v.describe()}")
            if v.element_addressed:
                key = (v.block_id, v.instr_id, v.feature)
                invalid.setdefault(key, set()).add(index_of[id(t)])

    schema = usable[0].schema
    n_elements = len(usable[0].pair_keys()) * schema.n_features
    if n_elements and len(invalid) / n_elements > config.max_degraded_fraction:
        return (
            substitute_all(
                f"{len(invalid)}/{n_elements} elements flagged exceeds "
                f"max degraded fraction {config.max_degraded_fraction:g}"
            ),
            report,
        )

    # sanitize: copy the matrix of only affected traces, replace each
    # invalid entry with the nearest valid one; remember the hold value
    # (the valid entry at the largest count) for the output override
    copies: Dict[int, TraceFile] = {}

    def writable(i: int) -> TraceFile:
        if i not in copies:
            copies[i] = usable[i].with_features(usable[i].features.copy())
        return copies[i]

    def value_at(t: TraceFile, key: ElementKey) -> float:
        bid, k, feature = key
        return float(t.features[t.row(bid, k), schema.index(feature)])

    held: Dict[ElementKey, Tuple[float, str]] = {}
    for key, bad in sorted(invalid.items()):
        valid = [i for i in range(len(usable)) if i not in bad]
        if not valid:
            return (
                substitute_all(
                    "element block {0} instr {1} feature {2!r} has no valid "
                    "training entries".format(*key)
                ),
                report,
            )
        bid, k, feature = key
        for i in sorted(bad):
            src = usable[_nearest_valid(valid, i)]
            out = writable(i)
            out.features[out.row(bid, k), schema.index(feature)] = value_at(
                src, key
            )
        lo, hi = schema.bounds(feature)
        value = value_at(usable[max(valid)], key)
        held[key] = (float(np.clip(value, lo, hi)), "training-data violation")
    sanitized = [copies.get(i, t) for i, t in enumerate(usable)]

    try:
        sweep = extrapolate_trace_many(
            sanitized,
            targets,
            forms=forms,
            rank=rank,
            rate_trust_factor=rate_trust_factor,
        )
    except (FitError, ValueError) as exc:
        if config.strict:
            raise
        return substitute_all(f"fitting failed: {exc}"), report

    # fitted-model boundary: hold any element whose selected fit is
    # non-finite (cannot happen on finite sanitized series, but the
    # boundary is checked, not assumed)
    fit_violations = validate_fit_report(sweep.report)
    report.add_violations(fit_violations)
    if config.strict and fit_violations:
        raise GuardError(fit_violations)
    for v in fit_violations:
        key = (v.block_id, v.instr_id, v.feature)
        if key in held:
            continue
        lo, hi = schema.bounds(v.feature)
        value = value_at(sanitized[-1], key)
        held[key] = (float(np.clip(value, lo, hi)), "non-finite fit")

    # -- quality gates --------------------------------------------------
    report.add_gate_flags(residual_gate(sweep.report, RESIDUAL_THRESHOLD))
    crossval = crossval_gate(
        sanitized, config.trust_threshold, forms=forms
    )
    if crossval is not None:
        report.trust_fraction = crossval.trust_fraction
        report.crossval_median_error = crossval.median_error
        report.add_gate_flags(crossval.flags)

    template = sanitized[0]
    outcome = spot_check_gate(
        sweep.report,
        {res.target_n_ranks: res.trace.features for res in sweep.results},
        forms=forms,
        rate_trust_factor=rate_trust_factor,
        seed_tokens=(template.app, template.target),
    )
    report.bump("n_spot_checks", len(outcome.checked_pairs))
    report.add_gate_flags(outcome.flags)
    if outcome.flags and config.strict:
        disagreements = [
            GuardViolation(
                artifact="extrapolated-trace",
                boundary="fit->extrapolate",
                check="spot-check",
                message=(
                    f"batched fit and scalar oracle disagree by "
                    f"{f.score:.3e} relative (tolerance {f.threshold:g})"
                ),
                severity="error",
                block_id=f.block_id,
                instr_id=f.instr_id,
                feature=f.feature,
            )
            for f in outcome.flags
        ]
        report.add_violations(disagreements)
        raise GuardError(disagreements)
    for (target, pair), ref in sorted(outcome.reference.items()):
        trace = sweep.result_for(target).trace
        trace.features[trace.row(*pair)] = ref
    for f in outcome.flags:
        report.degrade_element(
            ElementDegradation(
                block_id=f.block_id,
                instr_id=f.instr_id,
                feature=f.feature,
                action="reference-fallback",
                reason="fitting spot-check disagreement",
            )
        )

    # -- ladder rung 1: hold flagged elements at collected values -------
    hr = schema.hit_rate_slice
    for key, (value, reason) in sorted(held.items()):
        bid, k, feature = key
        j = schema.index(feature)
        for res in sweep.results:
            vec = res.trace.features[res.trace.row(bid, k)]
            vec[j] = value
            if schema.is_rate_field(feature):
                vec[hr] = np.clip(np.maximum.accumulate(vec[hr]), 0.0, 1.0)
        report.degrade_element(
            ElementDegradation(
                block_id=bid,
                instr_id=k,
                feature=feature,
                action="hold-nearest",
                reason=reason,
                value=value,
            )
        )

    # -- postcondition: every synthesized trace is physical -------------
    with span(
        "guard.validate", boundary="extrapolate->predict", traces=len(targets)
    ):
        for i, res in enumerate(sweep.results):
            post = validate_trace(res.trace, boundary="extrapolate->predict")
            bad = [v for v in post if v.rank >= 1]
            if not bad:
                continue
            report.add_violations(bad)
            if config.strict:
                raise GuardError(bad)
            if not clean:
                raise _refuse(
                    report,
                    f"synthesized trace for target {res.target_n_ranks} is "
                    "non-physical and no violation-free training trace "
                    "exists to substitute",
                    bad,
                    boundary="extrapolate->predict",
                )
            src = max(clean, key=lambda t: t.n_ranks)
            report.degrade_trace(
                TraceDegradation(
                    target=res.target_n_ranks,
                    action="substitute-collected",
                    reason="synthesized trace failed postcondition: "
                    + bad[0].describe(),
                    substitute_n_ranks=src.n_ranks,
                )
            )
            sweep.results[i] = ExtrapolationResult(
                trace=_substitute_trace(src, res.target_n_ranks, rank),
                report=sweep.report,
                target_n_ranks=res.target_n_ranks,
            )
    return sweep, report


def guarded_extrapolate(
    traces: Sequence[TraceFile],
    target_n_ranks: int,
    *,
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
    rank: int = -1,
    rate_trust_factor: float = 2.0,
    config: Optional[GuardConfig] = None,
    report: Optional[DegradationReport] = None,
) -> Tuple[ExtrapolationResult, DegradationReport]:
    """Single-target convenience wrapper over
    :func:`guarded_extrapolate_many`."""
    sweep, report = guarded_extrapolate_many(
        traces,
        [target_n_ranks],
        forms=forms,
        rank=rank,
        rate_trust_factor=rate_trust_factor,
        config=config,
        report=report,
    )
    return sweep.results[0], report


def check_signature(
    signature,
    *,
    config: Optional[GuardConfig],
    report: DegradationReport,
    boundary: str = "collect->fit",
) -> List[GuardViolation]:
    """Validate every trace of a collected signature at a boundary.

    Used by the standalone ``collect`` command, where there is no
    downstream fit to repair into: ``degrade`` records and proceeds
    (the poison is caught again, and repaired, at fit time),
    ``strict`` refuses.
    """
    if config is None or not config.enabled:
        return []
    violations: List[GuardViolation] = []
    for rank in sorted(signature.traces):
        violations.extend(
            validate_trace(signature.traces[rank], boundary=boundary)
        )
    report.add_violations(violations)
    serious = [v for v in violations if v.rank >= 1]
    if config.strict and serious:
        raise GuardError(serious)
    return violations


def check_prediction_inputs(
    trace: TraceFile,
    machine,
    *,
    config: Optional[GuardConfig],
    report: DegradationReport,
) -> List[GuardViolation]:
    """Validate the trace + machine profile entering prediction.

    A broken machine profile is run configuration, not per-element
    data — nothing on the ladder applies, so its (fatal) violations
    refuse under every enabled policy.  Trace violations refuse under
    ``strict`` and are recorded under ``degrade`` (a standalone trace
    has no training series to hold values from).
    """
    if config is None or not config.enabled:
        return []
    violations = validate_trace(trace, boundary="trace->predict")
    profile_violations = validate_machine_profile(machine)
    report.add_violations(violations + profile_violations)
    if profile_violations:
        raise _refuse(
            report,
            "machine profile failed validation",
            profile_violations,
            boundary="profile->predict",
        )
    serious = [v for v in violations if v.rank >= 1]
    if config.strict and serious:
        raise GuardError(serious)
    return violations + profile_violations
