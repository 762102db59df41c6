"""Stage-boundary artifact validators.

Each validator performs fast structural + physical checks on one
artifact kind and returns a list of :class:`GuardViolation` — it never
raises on bad *data* (only on caller programming errors), because the
caller decides, per :class:`~repro.guard.config.GuardConfig` policy,
whether to degrade or refuse.

Checks are vectorized over the whole trace (its feature matrix, a
handful of array passes), so validating at every boundary costs far
less than the stage work it protects.

Physical invariants checked on traces:

- every feature value finite,
- count fields (``exec_count``, ``mem_ops``, ...) non-negative,
- cumulative hit rates within [0, 1],
- cumulative hit rates non-decreasing outward across cache levels,
- feature-matrix width matches the schema (structural),
- positive ``n_ranks`` (structural).

Extrapolated traces additionally assert the synthesis postconditions
(``extrapolated`` marker set; the same physical invariants double as
the bounds/monotonization postcondition check).  Fitted models check
that every element's selected form has finite parameters and SSE, one
array pass over the fit matrices.  Machine profiles check finite
positive fp issue rates, finite network parameters, and a behavioral
probe of the bandwidth surface.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import List, Optional

import numpy as np

from repro.guard.violations import GuardViolation
from repro.trace.tracefile import TraceFile

#: slack for float-representation noise in rate range/monotonicity
#: checks; real poison (NaN, negatives, >1 rates) is far outside it
_RATE_TOL = 1e-9


def _element_violations(
    mask: np.ndarray,
    trace: TraceFile,
    *,
    artifact: str,
    boundary: str,
    check: str,
    message_for,
) -> List[GuardViolation]:
    """Materialize one violation per True entry of a (pairs, features)
    mask, element-addressed through the trace's pair keys."""
    out: List[GuardViolation] = []
    if not mask.any():
        return out
    pair_keys = trace.pair_keys()
    schema = trace.schema
    for p, j in zip(*np.nonzero(mask)):
        bid, k = pair_keys[int(p)]
        feature = schema.fields[int(j)]
        value = float(trace.features[p, j])
        out.append(
            GuardViolation(
                artifact=artifact,
                boundary=boundary,
                check=check,
                message=message_for(feature, value),
                severity="error",
                block_id=bid,
                instr_id=k,
                feature=feature,
            )
        )
    return out


def validate_trace(
    trace: TraceFile,
    *,
    boundary: str,
    artifact: Optional[str] = None,
) -> List[GuardViolation]:
    """All structural + physical violations of one trace file."""
    if artifact is None:
        artifact = "extrapolated-trace" if trace.extrapolated else "trace"
    violations: List[GuardViolation] = []
    schema = trace.schema

    if trace.n_ranks <= 0:
        violations.append(
            GuardViolation(
                artifact=artifact,
                boundary=boundary,
                check="n-ranks",
                message=f"non-positive core count {trace.n_ranks}",
                severity="fatal",
            )
        )

    # structural: the matrix width must match the schema before any
    # physical check can address elements by column
    matrix = trace.features
    if matrix.ndim != 2 or matrix.shape[1] != schema.n_features:
        violations.append(
            GuardViolation(
                artifact=artifact,
                boundary=boundary,
                check="schema",
                message=(
                    f"feature matrix has shape {matrix.shape}, schema "
                    f"expects ({trace.n_instructions}, {schema.n_features})"
                ),
                severity="fatal",
            )
        )
        return violations
    if matrix.size == 0:
        return violations

    violations += _element_violations(
        ~np.isfinite(matrix),
        trace,
        artifact=artifact,
        boundary=boundary,
        check="finite",
        message_for=lambda f, v: f"non-finite value {v!r}",
    )
    # NaN compares False everywhere below, so a non-finite element is
    # flagged exactly once (by the finite check)
    count_cols = np.array(
        [schema.is_count_field(f) for f in schema.fields]
    )
    negative = np.zeros(matrix.shape, dtype=bool)
    negative[:, count_cols] = matrix[:, count_cols] < 0.0
    violations += _element_violations(
        negative,
        trace,
        artifact=artifact,
        boundary=boundary,
        check="count-negative",
        message_for=lambda f, v: f"negative count {v!r}",
    )

    hr = schema.hit_rate_slice
    rates = matrix[:, hr]
    out_of_range = np.zeros(matrix.shape, dtype=bool)
    out_of_range[:, hr] = (rates < -_RATE_TOL) | (rates > 1.0 + _RATE_TOL)
    violations += _element_violations(
        out_of_range,
        trace,
        artifact=artifact,
        boundary=boundary,
        check="rate-range",
        message_for=lambda f, v: f"hit rate {v!r} outside [0, 1]",
    )

    # cumulative hit rates cannot decrease outward; flag the offending
    # (outer) level of each decreasing step
    non_monotone = np.zeros(matrix.shape, dtype=bool)
    if rates.shape[1] >= 2:
        drops = np.diff(rates, axis=1) < -_RATE_TOL
        non_monotone[:, hr.start + 1: hr.stop] = drops
    violations += _element_violations(
        non_monotone,
        trace,
        artifact=artifact,
        boundary=boundary,
        check="rate-monotone",
        message_for=lambda f, v: (
            f"cumulative hit rate {v!r} decreases from the previous level"
        ),
    )

    if artifact == "extrapolated-trace" and not trace.extrapolated:
        violations.append(
            GuardViolation(
                artifact=artifact,
                boundary=boundary,
                check="extrapolated-marker",
                message="trace is not marked extrapolated",
                severity="error",
            )
        )
    return violations


def validate_fit_report(
    report,
    *,
    boundary: str = "fit->extrapolate",
) -> List[GuardViolation]:
    """Violations of a fitted model set: every element's selected form
    (``batch.order[:, 0]``) must have finite parameters and finite
    training SSE.  One array pass over the fit matrices."""
    batch, schema = report.batch, report.schema
    rows = np.arange(batch.n_rows)
    chosen = batch.order[:, 0]
    finite = np.stack(
        [np.isfinite(p).all(axis=1) for p in batch.params], axis=1
    )
    params_ok = finite[rows, chosen]
    sse_ok = np.isfinite(batch.sse[rows, chosen])
    violations: List[GuardViolation] = []
    for row in np.flatnonzero(~(params_ok & sse_ok)):
        name = batch.forms[chosen[row]].name
        what = "parameters" if not params_ok[row] else "SSE"
        bid, k = report.pair_keys[row // schema.n_features]
        violations.append(
            GuardViolation(
                artifact="fit",
                boundary=boundary,
                check="fit-finite",
                message=f"selected form {name!r} has non-finite {what}",
                severity="error",
                block_id=bid,
                instr_id=k,
                feature=schema.fields[row % schema.n_features],
            )
        )
    return violations


def validate_machine_profile(
    profile,
    *,
    boundary: str = "profile->predict",
) -> List[GuardViolation]:
    """Violations of a machine profile (all fatal: a profile is run
    configuration, not per-element data — there is nothing to hold or
    substitute, so the ladder's only option is refusal)."""
    violations: List[GuardViolation] = []

    def fatal(check: str, message: str) -> None:
        violations.append(
            GuardViolation(
                artifact="machine-profile",
                boundary=boundary,
                check=check,
                message=message,
                severity="fatal",
            )
        )

    for kind, rate in sorted(profile.fp_rates_gflops.items()):
        if not np.isfinite(rate) or rate <= 0:
            fatal("fp-rate", f"fp rate for {kind!r} is {rate!r} GFLOP/s")

    for f in dataclass_fields(profile.network):
        value = getattr(profile.network, f.name)
        if isinstance(value, (int, float)) and not np.isfinite(value):
            fatal("network", f"network parameter {f.name!r} is {value!r}")

    # behavioral probe: the surface must price both an all-hit and an
    # all-miss reference stream to a finite positive bandwidth
    n_levels = profile.n_levels
    probes = np.vstack(
        [np.ones(n_levels), np.linspace(0.0, 1.0, n_levels)]
    )
    try:
        bw = np.asarray(profile.memory_bandwidth_gbs(probes), dtype=np.float64)
    except Exception as exc:  # noqa: BLE001 - any crash is a violation
        fatal("surface", f"bandwidth surface evaluation failed: {exc}")
    else:
        if not np.all(np.isfinite(bw)) or np.any(bw <= 0):
            fatal(
                "surface",
                f"bandwidth surface returned non-physical bandwidths {bw!r}",
            )
    return violations
