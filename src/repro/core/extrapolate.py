"""Trace extrapolation (§IV): synthesize the large-core-count trace.

Takes trace files of the slowest task at a series of small core counts
(the paper uses three: "using more than three core counts could improve
the quality of the fit but ... three generally provided adequate
accuracy"), fits every feature element, and evaluates at the target core
count, producing a synthetic :class:`~repro.trace.tracefile.TraceFile`
that downstream prediction consumes exactly like a collected one.

Predicted values are clamped to each feature's physical bounds (hit
rates to [0, 1], counts to >= 0); the hit-rate block is additionally
re-monotonized (cumulative rates cannot decrease outward) and re-clamped
— every post-pass that can move a value re-checks the bounds, so a
malformed training series can never push a synthesized rate outside
[0, 1].

Rate elements also get a *trust region*: the extrapolated change beyond
the largest training count is capped at ``rate_trust_factor`` times the
total change observed across training.  Hit-rate curves saturate for
structural reasons (inter-block cache competition) that no canonical
form can see in three points; an exponential fit through a gently
accelerating rate otherwise extrapolates straight to 100%.  The cap is
conservative in exactly the way the fits are optimistic.

Fitting and synthesis run as whole-trace array passes (see
``repro.core.batchfit``).  :func:`extrapolate_trace_many` exposes the
multi-target sweep: one fit, many cheap target evaluations — the path
the Tables II/III what-if benches ride.  :func:`reference_matrices` is
the per-element scalar oracle the array path is tested against; the
guard's spot check runs it on a sample of every guarded fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.canonical import CanonicalForm, PAPER_FORMS, fit_all
from repro.core.fitting import (
    BatchedFitReport,
    ElementFit,
    SweepPrediction,
    fit_feature_series,
)
from repro.obs.trace import span
from repro.trace.tracefile import TraceFile
from repro.util.errors import FitError


@dataclass
class ExtrapolationResult:
    """The synthesized trace plus the fit behind it (``None`` when the
    guard substituted a collected trace for the whole run)."""

    trace: TraceFile
    report: Optional[BatchedFitReport]
    target_n_ranks: int


@dataclass
class ExtrapolationSweep:
    """Synthesized traces for a whole sweep of targets, from one fit."""

    results: List[ExtrapolationResult]
    report: Optional[BatchedFitReport]
    targets: List[int]

    def result_for(self, target: int) -> ExtrapolationResult:
        for res in self.results:
            if res.target_n_ranks == target:
                return res
        raise KeyError(f"target {target} not in sweep targets {self.targets}")

    def trace_for(self, target: int) -> TraceFile:
        return self.result_for(target).trace


def check_series(traces: Sequence[TraceFile]) -> List[TraceFile]:
    """A training series sorted by core count, or :class:`FitError`.

    Refuses duplicate core counts and traces that disagree on schema,
    app, target, block set or instruction columns — everything that
    would make one element's values across the series meaningless.
    """
    traces = sorted(traces, key=lambda t: t.n_ranks)
    counts = [t.n_ranks for t in traces]
    if len(set(counts)) != len(counts):
        raise FitError(f"duplicate training core counts: {counts}", stage="fit")
    first = traces[0]
    for other in traces[1:]:
        if other.schema.fields != first.schema.fields:
            raise FitError("traces have differing schemas", stage="fit")
        if other.app != first.app:
            raise FitError(
                f"traces from different apps: {first.app!r} vs {other.app!r}",
                stage="fit",
            )
        if other.target != first.target:
            raise FitError(
                f"traces against different targets: {first.target!r} vs "
                f"{other.target!r}",
                stage="fit",
            )
        if list(other.locations) != list(first.locations):
            raise FitError("traces have differing basic-block sets", stage="fit")
        for column in ("block_ids", "instr_ids", "kinds"):
            if not np.array_equal(getattr(other, column), getattr(first, column)):
                raise FitError(
                    f"traces at {first.n_ranks} and {other.n_ranks} cores have "
                    f"differing {column} columns",
                    stage="fit",
                )
    return traces


def synthesize_from_prediction(
    template: TraceFile,
    prediction: "SweepPrediction",
    target: int,
    *,
    rank: int = -1,
) -> TraceFile:
    """Assemble the synthetic trace of one target from a sweep prediction.

    The trace-building half of the batched extrapolation path on its
    own: given the ``predict_many`` output of an already-fitted model
    and its synthesis template, produce the same
    :class:`~repro.trace.tracefile.TraceFile` that
    :func:`extrapolate_trace_many` would have built for ``target`` —
    the path serving-time runtime queries take, where the fit is
    answered from the model registry instead of recomputed.
    """
    if list(prediction.pair_keys) != template.pair_keys():
        raise ValueError("prediction and template address different instructions")
    return template.with_features(
        prediction.matrix_for(target).copy(),
        rank=rank,
        n_ranks=target,
        extrapolated=True,
    )


def synthesize_element_vector(
    fits: Sequence[ElementFit],
    schema,
    target_n_ranks: int,
    rate_trust_factor: float,
) -> np.ndarray:
    """Scalar synthesis of one instruction's feature vector.

    ``fits`` is the per-feature list of
    :class:`~repro.core.fitting.ElementFit` objects for one
    ``(block, instr)`` pair, in schema field order.  Applies the full
    scalar pipeline — physicality-aware selection, bounds clamping, the
    rate trust region (re-clamped), hit-rate re-monotonization — one
    element at a time: the oracle half of :func:`reference_matrices`.
    """
    vec = schema.empty_vector()
    for j, feature in enumerate(schema.fields):
        fit = fits[j]
        bounds = schema.bounds(feature)
        value = fit.predict(target_n_ranks, bounds)
        if schema.is_rate_field(feature) and np.isfinite(rate_trust_factor):
            last = float(fit.train_y[-1])
            spread = float(np.ptp(fit.train_y))
            value = float(
                np.clip(
                    value,
                    last - rate_trust_factor * spread,
                    last + rate_trust_factor * spread,
                )
            )
            # the trust cap can re-introduce out-of-range values when
            # the training series itself strays out of bounds —
            # physical bounds always win
            value = float(np.clip(value, *bounds))
        vec[j] = value
    # cumulative hit rates must be non-decreasing outward
    hr_slice = schema.hit_rate_slice
    vec[hr_slice] = np.clip(np.maximum.accumulate(vec[hr_slice]), 0.0, 1.0)
    return vec


def reference_matrices(
    report: BatchedFitReport,
    pairs: Sequence[int],
    targets: Sequence[int],
    *,
    forms: Sequence[CanonicalForm],
    rate_trust_factor: float,
) -> np.ndarray:
    """The scalar oracle: refit some pairs element by element.

    For each index ``p`` into ``report.pair_keys``, refits every feature
    of that instruction from its training series in ``report.batch.Y``
    with :func:`~repro.core.canonical.fit_all` and synthesizes it at
    every target with :func:`synthesize_element_vector`.  Returns
    ``(n_targets, len(pairs), n_features)``: the rows of
    ``report.predict_many(targets).values`` the batch path must match
    to ~1e-9 relative.  The guard's spot check calls it on a keyed
    sample; the tests call it on every pair.
    """
    schema, batch = report.schema, report.batch
    out = np.empty((len(targets), len(pairs), schema.n_features))
    for i, p in enumerate(pairs):
        rows = batch.Y[p * schema.n_features:(p + 1) * schema.n_features]
        fits = [ElementFit(fit_all(batch.x, y, forms), y.copy()) for y in rows]
        for t, target in enumerate(targets):
            out[t, i] = synthesize_element_vector(
                fits, schema, target, rate_trust_factor
            )
    return out


def fit_traces(
    traces: Sequence[TraceFile],
    *,
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
) -> Tuple[BatchedFitReport, TraceFile]:
    """Validate a training series and fit every feature element once.

    The fit half of :func:`extrapolate_trace_many`, factored out so the
    serving model registry (:mod:`repro.serve.registry`) trains through
    the identical path the sweep API uses: sort by core count, reject
    duplicates and inconsistent schemas/blocks, stack the series into
    one ``(n_pairs, n_counts, n_features)`` array, and fit.  Returns the report plus the
    synthesis template (the smallest training trace) — everything needed
    to answer ``predict_many`` queries later without re-fitting.
    """
    if len(traces) < 2:
        raise FitError(
            f"need at least 2 training traces, got {len(traces)} "
            "(the paper uses 3)",
            stage="fit",
        )
    traces = check_series(traces)
    template = traces[0]
    report = fit_feature_series(
        template.schema,
        [t.n_ranks for t in traces],
        np.stack([t.features for t in traces], axis=1),
        forms,
        pair_keys=template.pair_keys(),
    )
    return report, template


def extrapolate_trace_many(
    traces: Sequence[TraceFile],
    targets: Sequence[int],
    *,
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
    rank: int = -1,
    rate_trust_factor: float = 2.0,
) -> ExtrapolationSweep:
    """Extrapolate one training series to *many* target core counts.

    Fits every feature element once, then evaluates the fitted models at
    every target — the multi-target sweep behind the Tables II/III
    what-if benches, where re-fitting per target would dominate.  The
    whole sweep is a handful of array passes.

    Parameters
    ----------
    traces:
        Slowest-task trace files at ascending core counts (>= 2; the
        paper uses 3).
    targets:
        Core counts to synthesize (each positive; order preserved).
    forms:
        Canonical forms to select among (paper set by default; pass
        :data:`~repro.core.canonical.EXTENDED_FORMS` for the §VI
        extension).
    rank:
        Rank id recorded in the synthetic traces (cosmetic; -1 marks
        "synthetic slowest task").
    rate_trust_factor:
        Trust-region width for rate elements, in units of the training
        range (see module docstring).  ``inf`` disables the cap.
    """
    targets = [int(t) for t in targets]
    if not targets:
        raise FitError("need at least one target core count", stage="fit")
    for t in targets:
        if t <= 0:
            raise FitError(f"target core count must be positive, got {t}", stage="fit")
    report, template = fit_traces(traces, forms=forms)

    with span(
        "extrapolate.synthesize",
        targets=len(targets),
        pairs=template.n_instructions,
    ):
        sweep = report.predict_many(targets, rate_trust_factor=rate_trust_factor)
        results = [
            ExtrapolationResult(
                trace=template.with_features(
                    values.copy(), rank=rank, n_ranks=target, extrapolated=True
                ),
                report=report,
                target_n_ranks=target,
            )
            for target, values in zip(targets, sweep.values)
        ]
    return ExtrapolationSweep(results=results, report=report, targets=targets)


def extrapolate_trace(
    traces: Sequence[TraceFile],
    target_n_ranks: int,
    *,
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
    rank: int = -1,
    rate_trust_factor: float = 2.0,
) -> ExtrapolationResult:
    """Extrapolate a series of small-core-count traces to a large count.

    Single-target convenience wrapper over
    :func:`extrapolate_trace_many`; see that function for parameters.
    """
    sweep = extrapolate_trace_many(
        traces,
        [target_n_ranks],
        forms=forms,
        rank=rank,
        rate_trust_factor=rate_trust_factor,
    )
    return sweep.results[0]
