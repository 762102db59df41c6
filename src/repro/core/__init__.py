"""Trace extrapolation: the paper's primary contribution (§IV).

Given trace files of the most computationally demanding MPI task at a
series of small core counts, fit each element of each instruction's
feature vector with the best of a set of canonical function forms —
constant, linear, logarithmic, exponential (paper §IV), plus the
polynomial/power/inverse extensions §VI proposes — and evaluate the
fitted models at a large core count to synthesize the trace that would
have been collected there.
"""

from repro.core.canonical import (
    CanonicalForm,
    ConstantForm,
    ExponentialForm,
    FitResult,
    InverseForm,
    LinearForm,
    LogarithmicForm,
    PowerForm,
    QuadraticForm,
    EXTENDED_FORMS,
    PAPER_FORMS,
    fit_best,
)
from repro.core.batchfit import BatchFitResult, batch_fit_series
from repro.core.fitting import (
    BatchedFitReport,
    ElementFit,
    SweepPrediction,
    fit_feature_series,
)
from repro.core.influence import influential_instructions, InfluenceReport
from repro.core.extrapolate import (
    ExtrapolationResult,
    ExtrapolationSweep,
    extrapolate_trace,
    extrapolate_trace_many,
)
from repro.core.clustering import (
    ClusteredSignature,
    cluster_ranks,
    extrapolate_signature_clustered,
)
from repro.core.errors import abs_rel_error, signed_rel_error

__all__ = [
    "CanonicalForm",
    "ConstantForm",
    "LinearForm",
    "LogarithmicForm",
    "ExponentialForm",
    "PowerForm",
    "QuadraticForm",
    "InverseForm",
    "PAPER_FORMS",
    "EXTENDED_FORMS",
    "FitResult",
    "fit_best",
    "BatchFitResult",
    "batch_fit_series",
    "ElementFit",
    "BatchedFitReport",
    "SweepPrediction",
    "fit_feature_series",
    "influential_instructions",
    "InfluenceReport",
    "ExtrapolationResult",
    "ExtrapolationSweep",
    "extrapolate_trace",
    "extrapolate_trace_many",
    "ClusteredSignature",
    "cluster_ranks",
    "extrapolate_signature_clustered",
    "abs_rel_error",
    "signed_rel_error",
]
