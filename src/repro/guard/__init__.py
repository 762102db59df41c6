"""Stage-boundary guardrails for the extrapolation pipeline.

PR 3 made the *execution* layer fault-tolerant; this package defends
the *data* flowing between stages.  Three pillars:

- **validators** (:mod:`repro.guard.validators`): fast structural and
  physical checks on every artifact crossing a stage boundary — trace
  files, fitted models, extrapolated traces, machine profiles — each
  problem a typed, element-addressed :class:`GuardViolation` instead of
  a deep-stack crash.
- **gates** (:mod:`repro.guard.gates`): per-element fit quality gates
  combining training residuals, leave-one-out cross-validation
  (:mod:`repro.core.crossval`), and spot checks of the batched fit
  against the scalar oracle.
- **the degradation ladder** (:mod:`repro.guard.engine`): under
  ``GuardPolicy`` ``strict``/``degrade``/``off``, flagged elements
  degrade individually (hold the nearest collected value) before the
  whole trace degrades (substitute the largest collected trace) before
  the prediction is refused — every step recorded in a
  :class:`DegradationReport` that flows into the run manifest, the
  ``guard.*`` metrics, and the CLI summary.

Invariant: on clean inputs, guards-on output is bit-identical to
guards-off output (DESIGN.md §7.7).
"""

from repro.guard.config import GuardConfig, POLICIES
from repro.guard.degrade import (
    DegradationReport,
    ElementDegradation,
    TraceDegradation,
)
from repro.guard.engine import (
    check_prediction_inputs,
    check_signature,
    guarded_extrapolate,
    guarded_extrapolate_many,
)
from repro.guard.gates import GateFlag
from repro.guard.validators import (
    validate_machine_profile,
    validate_trace,
)
from repro.guard.violations import GuardError, GuardViolation

__all__ = [
    "POLICIES",
    "DegradationReport",
    "ElementDegradation",
    "GateFlag",
    "GuardConfig",
    "GuardError",
    "GuardViolation",
    "TraceDegradation",
    "check_prediction_inputs",
    "check_signature",
    "guarded_extrapolate",
    "guarded_extrapolate_many",
    "validate_machine_profile",
    "validate_trace",
]
