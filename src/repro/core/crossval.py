"""Leave-one-out confidence estimation for trace extrapolation.

The paper picks fits by training SSE; with three points every 2-parameter
form can fit closely, so training error says little about extrapolation
error.  A cheap, assumption-free confidence signal is leave-one-out on
the *largest* training count: refit each element on the smaller counts
and score the held-out prediction.  Elements that survive this (the
constant hit rates, the log-growing reduction counts) can be trusted at
the target; elements that fail are flagged for the analyst — typically
the working sets crossing a cache level right at the training boundary.

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
from typing import List, Sequence

import numpy as np

from repro.core.canonical import CanonicalForm, PAPER_FORMS, fit_all
from repro.core.errors import abs_rel_error
from repro.core.fitting import ElementFit
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

    Requires at least three traces (two remain for refitting).  The
    largest core count is held out because extrapolation always moves in
    that direction.
    """
    if len(traces) < 3:
        raise ValueError(
            f"cross-validation needs >= 3 training traces, got {len(traces)}"
        )
    traces = sorted(traces, key=lambda t: t.n_ranks)
    held_out = traces[-1]
    kept = traces[:-1]
    x = np.array([t.n_ranks for t in kept], dtype=np.float64)
    report = CrossValidationReport(core_counts=[t.n_ranks for t in traces])
    schema = held_out.schema
    kept_blocks = [t.blocks for t in kept]
    for bid, block in held_out.blocks.items():
        for k, truth in enumerate(block.instructions):
            truth_vec = truth.features
            series = np.stack(
                [blocks[bid].instructions[k].features for blocks in kept_blocks]
            )
            for j, feature in enumerate(schema.fields):
                # mirror the production extrapolation path: bounds-aware
                # selection among all candidate fits, then clamping
                element = ElementFit(
                    block_id=bid,
                    instr_id=k,
                    feature=feature,
                    candidates=fit_all(x, series[:, j], forms),
                    train_x=x,
                    train_y=series[:, j].copy(),
                )
                predicted = element.predict(
                    float(held_out.n_ranks), schema.bounds(feature)
                )
                report.elements.append(
                    ElementConfidence(
                        block_id=bid,
                        instr_id=k,
                        feature=feature,
                        held_out_value=float(truth_vec[j]),
                        predicted_value=predicted,
                    )
                )
    return report
