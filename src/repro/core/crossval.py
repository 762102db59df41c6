"""Leave-one-out confidence estimation for trace extrapolation.

The paper picks fits by training SSE; with three points every 2-parameter
form can fit closely, so training error says little about extrapolation
error.  A cheap, assumption-free confidence signal is leave-one-out on
the *largest* training count: refit each element on the smaller counts
and score the held-out prediction.  Elements that survive this (the
constant hit rates, the log-growing reduction counts) can be trusted at
the target; elements that fail are flagged for the analyst — typically
the working sets crossing a cache level right at the training boundary.

Every element is refitted at once by the production fit,
:func:`repro.core.extrapolate.fit_traces` on the kept traces, and
evaluated at the held-out count with the same physicality-aware
selection and bounds clamp the extrapolation path applies.

This is an extension beyond the paper (its natural "how much should I
trust this extrapolation?" companion).  It is wired into the pipeline
through the guard subsystem: :func:`repro.guard.gates.crossval_gate`
runs it whenever guarded extrapolation has >= 3 training traces, the
resulting trust fraction flows into the degradation report, the run
manifest, and the ``.quality.json`` sidecar written next to each
synthesized trace, and ``repro predict --trust-threshold`` turns it
into an acceptance floor.  The scores are advisory — they flag
elements, never alter extrapolated values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import List, Sequence

import numpy as np

from repro.core.canonical import CanonicalForm, PAPER_FORMS
from repro.core.errors import abs_rel_error
from repro.core.extrapolate import check_series, fit_traces
from repro.core.fitting import row_bounds
from repro.trace.tracefile import TraceFile


@dataclass
class ElementConfidence:
    """Held-out error of one element's canonical fit."""

    block_id: int
    instr_id: int
    feature: str
    held_out_value: float
    predicted_value: float

    @property
    def held_out_error(self) -> float:
        return abs_rel_error(self.held_out_value, self.predicted_value)


@dataclass
class CrossValidationReport:
    """Leave-last-out scores for every element of a trace series."""

    core_counts: List[int]
    elements: List[ElementConfidence] = field(default_factory=list)

    def errors(self) -> np.ndarray:
        return np.array(
            [e.held_out_error for e in self.elements if np.isfinite(e.held_out_error)]
        )

    def median_error(self) -> float:
        errs = self.errors()
        return float(np.median(errs)) if errs.size else 0.0

    def flagged(self, threshold: float = 0.2) -> List[ElementConfidence]:
        """Elements whose held-out error exceeds ``threshold``."""
        return sorted(
            (e for e in self.elements if e.held_out_error > threshold),
            key=lambda e: -e.held_out_error,
        )

    def trust_fraction(self, threshold: float = 0.2) -> float:
        """Fraction of elements within the threshold."""
        if not self.elements:
            return 1.0
        ok = sum(1 for e in self.elements if e.held_out_error <= threshold)
        return ok / len(self.elements)


def cross_validate_traces(
    traces: Sequence[TraceFile],
    *,
    forms: Sequence[CanonicalForm] = PAPER_FORMS,
) -> CrossValidationReport:
    """Score every element by leave-last-out refitting.

    Requires at least three traces (two remain for refitting), and
    refuses with :class:`~repro.util.errors.FitError` any series that
    fitting refuses (duplicate counts, inconsistent traces).  The
    largest core count is held out because extrapolation always moves in
    that direction.
    """
    if len(traces) < 3:
        raise ValueError(
            f"cross-validation needs >= 3 training traces, got {len(traces)}"
        )
    traces = check_series(traces)
    held_out, kept = traces[-1], traces[:-1]
    schema = held_out.schema
    pair_keys = held_out.pair_keys()
    batch = fit_traces(kept, forms=forms)[0].batch
    # mirror the production extrapolation path: bounds-aware selection
    # among all candidate fits, then clamping
    lo, hi = row_bounds(schema, len(pair_keys))
    raw, _chosen = batch.select_and_predict([held_out.n_ranks], lo)
    predicted = np.clip(raw[:, 0], lo, hi)
    truth = held_out.features.reshape(-1)
    report = CrossValidationReport(core_counts=[t.n_ranks for t in traces])
    report.elements = [
        ElementConfidence(
            block_id=bid,
            instr_id=k,
            feature=feature,
            held_out_value=float(truth[row]),
            predicted_value=float(predicted[row]),
        )
        for row, ((bid, k), feature) in enumerate(
            product(pair_keys, schema.fields)
        )
    ]
    return report
