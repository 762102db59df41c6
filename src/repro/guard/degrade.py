"""The degradation ladder's ledger.

A :class:`DegradationReport` records everything the guard subsystem did
to one run — violations observed, gate flags raised, elements held,
traces substituted, predictions refused — and mirrors its counters into
the global metrics registry under ``guard.*`` (the same pattern
:class:`repro.exec.resilience.RunReport` uses for ``resilience.*``), so
the run manifest, the metrics export, and the CLI summary all agree.

The ladder itself (decide → repair → escalate) lives in
:mod:`repro.guard.engine`; this module only remembers what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.guard.config import GuardConfig
from repro.guard.gates import GateFlag
from repro.guard.violations import GuardViolation
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY

log = get_logger("guard")

_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ElementDegradation:
    """One element repaired on ladder rung 1 (or spot-check fallback)."""

    block_id: int
    instr_id: int
    feature: str
    action: str  #: "hold-nearest" | "reference-fallback"
    reason: str
    value: Optional[float] = None  #: the substituted value, when scalar

    def to_dict(self) -> dict:
        return {
            "block_id": self.block_id,
            "instr_id": self.instr_id,
            "feature": self.feature,
            "action": self.action,
            "reason": self.reason,
            "value": self.value,
        }


@dataclass(frozen=True)
class TraceDegradation:
    """One whole synthesized trace replaced on ladder rung 2."""

    target: int
    action: str  #: "substitute-collected"
    reason: str
    substitute_n_ranks: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "action": self.action,
            "reason": self.reason,
            "substitute_n_ranks": self.substitute_n_ranks,
        }


@dataclass
class DegradationReport:
    """Everything the guards observed and did in one run."""

    policy: str = "degrade"
    trust_threshold: Optional[float] = None
    trust_fraction: Optional[float] = None  #: crossval gate summary
    crossval_median_error: Optional[float] = None
    violations: List[GuardViolation] = field(default_factory=list)
    gate_flags: List[GateFlag] = field(default_factory=list)
    degraded_elements: List[ElementDegradation] = field(default_factory=list)
    degraded_traces: List[TraceDegradation] = field(default_factory=list)
    refusal_messages: List[str] = field(default_factory=list)

    # counters (mirrored into REGISTRY as guard.<name>)
    n_violations: int = 0
    n_gate_flags: int = 0
    n_elements_degraded: int = 0
    n_traces_degraded: int = 0
    n_refusals: int = 0
    n_spot_checks: int = 0  #: pairs compared against the reference engine
    n_spot_disagreements: int = 0
    n_crossval_flagged: int = 0
    n_residual_flagged: int = 0

    #: counter fields, in summary() order (the metrics mirroring surface)
    COUNTER_FIELDS = (
        "n_violations",
        "n_gate_flags",
        "n_elements_degraded",
        "n_traces_degraded",
        "n_refusals",
        "n_spot_checks",
        "n_spot_disagreements",
        "n_crossval_flagged",
        "n_residual_flagged",
    )

    @classmethod
    def for_config(cls, config: GuardConfig) -> "DegradationReport":
        return cls(policy=config.policy, trust_threshold=config.trust_threshold)

    def bump(self, name: str, n: int = 1) -> None:
        """Increment one tally, mirrored into the global metrics registry
        as ``guard.<name>`` (sans the ``n_`` prefix)."""
        setattr(self, name, getattr(self, name) + n)
        REGISTRY.inc(f"guard.{name[2:] if name.startswith('n_') else name}", n)

    # -- recording ------------------------------------------------------

    def add_violations(self, violations: List[GuardViolation]) -> None:
        for v in violations:
            self.violations.append(v)
            self.bump("n_violations")
            log.warning("guard violation: %s", v.describe())

    def add_gate_flags(self, flags: List[GateFlag]) -> None:
        for f in flags:
            self.gate_flags.append(f)
            self.bump("n_gate_flags")
            if f.gate == "crossval":
                self.bump("n_crossval_flagged")
            elif f.gate == "residual":
                self.bump("n_residual_flagged")
            elif f.gate == "spot-check":
                self.bump("n_spot_disagreements")

    def degrade_element(self, degradation: ElementDegradation) -> None:
        self.degraded_elements.append(degradation)
        self.bump("n_elements_degraded")
        log.warning(
            "guard degraded block %d instr %d feature %r: %s (%s)",
            degradation.block_id,
            degradation.instr_id,
            degradation.feature,
            degradation.action,
            degradation.reason,
        )

    def degrade_trace(self, degradation: TraceDegradation) -> None:
        self.degraded_traces.append(degradation)
        self.bump("n_traces_degraded")
        log.warning(
            "guard substituted whole trace for target %d: %s",
            degradation.target,
            degradation.reason,
        )

    def refuse(self, message: str) -> None:
        self.refusal_messages.append(message)
        self.bump("n_refusals")
        log.error("guard refusal: %s", message)

    # -- summaries ------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True when the guards neither observed nor changed anything
        that matters: no violations, no degradations, no refusals, no
        engine disagreement.  Advisory gate flags do not spoil a clean
        run — they carry no evidence of invalid data."""
        return (
            self.n_violations == 0
            and self.n_elements_degraded == 0
            and self.n_traces_degraded == 0
            and self.n_refusals == 0
            and self.n_spot_disagreements == 0
        )

    def summary(self) -> str:
        parts = [
            f"{name[2:].replace('_', ' ')}: {getattr(self, name)}"
            for name in self.COUNTER_FIELDS
        ]
        if self.trust_fraction is not None:
            parts.append(f"trust fraction: {self.trust_fraction:.3f}")
        return f"guard[{self.policy}] " + ", ".join(parts)

    def to_dict(self) -> dict:
        """The exported DegradationReport document (see
        ``tests/schemas/degradation.schema.json``)."""
        return {
            "schema_version": _SCHEMA_VERSION,
            "policy": self.policy,
            "clean": self.clean,
            "trust_threshold": self.trust_threshold,
            "trust_fraction": self.trust_fraction,
            "crossval_median_error": self.crossval_median_error,
            "counters": {
                name[2:]: getattr(self, name) for name in self.COUNTER_FIELDS
            },
            "violations": [v.to_dict() for v in self.violations],
            "gate_flags": [f.to_dict() for f in self.gate_flags],
            "degraded_elements": [
                d.to_dict() for d in self.degraded_elements
            ],
            "degraded_traces": [d.to_dict() for d in self.degraded_traces],
            "refusals": list(self.refusal_messages),
        }
