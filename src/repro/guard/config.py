"""Guard policy and thresholds.

``GuardConfig`` is the single knob bundle threaded through the pipeline
(CLI ``--guard``/``--trust-threshold`` flags build one).  No config
(``None``, what ``--guard off`` builds) disables the guards entirely:
the pipeline behaves exactly as if this package did not exist.  The
policy selects a rung style on the degradation ladder:

=========  ==========================================================
``degrade``validate and gate, repair what can be repaired (hold
           nearest-collected values, substitute the largest collected
           trace), refuse only when nothing on the ladder applies
``strict`` validate and gate, refuse on the first ``error``-or-worse
           violation with an element-addressed message
=========  ==========================================================

Quality-gate flags (training residuals, cross-validation) are
*advisory* under every policy: with only a handful of training points a
statistical gate flags clean data too, and acting on such flags would
break the clean-run bit-identity invariant (DESIGN.md §7.7).  Only
physical/structural violations and fitting spot-check
disagreements — which cannot occur on clean inputs — alter output or
refuse.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_in_range, check_positive

#: recognized guard policies
POLICIES = ("strict", "degrade")


@dataclass(frozen=True)
class GuardConfig:
    """Policy plus the thresholds a run may set, validated at construction.

    The gates' other thresholds are module constants next to their
    readers (:mod:`repro.guard.gates`, :mod:`repro.guard.engine`).
    """

    #: ladder behavior: "strict" | "degrade"
    policy: str = "degrade"
    #: leave-one-out held-out relative error above which an element is
    #: flagged by the cross-validation gate (advisory)
    trust_threshold: float = 0.2
    #: flagged-element fraction beyond which per-element holds give way
    #: to whole-trace substitution (ladder rung 2)
    max_degraded_fraction: float = 0.5

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown guard policy {self.policy!r}; known: {POLICIES}"
            )
        check_positive("trust_threshold", self.trust_threshold)
        check_in_range(
            "max_degraded_fraction", self.max_degraded_fraction,
            low=0.0, high=1.0,
        )

    @property
    def strict(self) -> bool:
        return self.policy == "strict"
