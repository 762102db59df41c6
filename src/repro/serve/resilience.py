"""Fault discipline for the serving tier: breakers, deadlines, reports.

The batch pipeline earned its recovery machinery in PRs 3/5
(:mod:`repro.exec.resilience`, :mod:`repro.guard`); this module gives
the *serving* tier the equivalent discipline, tuned for a latency-bound
query path where the right failure answer is always *fast and typed*,
never a hang:

- :class:`CircuitBreaker` — per-model failure isolation.  ``closed``
  until ``threshold`` *consecutive* batch failures, then ``open``:
  queries for that model are shed at admission/dispatch with
  :class:`~repro.util.errors.CircuitOpenError` instead of queueing
  behind a poisoned model.  After a keyed-RNG-jittered open window the
  breaker goes ``half_open`` and admits exactly one probe; a healthy
  probe re-closes it, a failed probe re-opens with a fresh window.
  The jitter is drawn from ``stream("serve", "breaker", model, n)`` —
  deterministic per (model, open count), so two identical chaos runs
  probe on an identical schedule.
- :class:`ServeReport` — the serving analogue of
  :class:`~repro.exec.resilience.RunReport`: one tally per recovery
  event (deadline expiries by boundary, breaker transitions, batch
  failures, worker offloads), mirrored into ``serve.resilience.*``
  metrics by construction and embedding the worker-pool
  :class:`~repro.exec.resilience.RunReport` that runtime-replay offload
  accumulates into.  The chaos acceptance test holds the report, the
  metrics registry, and the run manifest to *exactly* the injected
  fault tallies.
- :func:`replay_runtime_task` — the module-level (hence picklable)
  unit of runtime-replay work the engine offloads through
  :func:`~repro.exec.resilience.run_tasks_resilient`, so MultiMAPS
  replay never blocks the event loop and a crashed or hung replay gets
  the existing retry/backoff/pool-rebuild treatment.

Deadline bookkeeping itself lives in the engine/batcher (it is a
property of a query's journey, not a standalone object); the typed
errors are :class:`~repro.util.errors.DeadlineExceededError` and
:class:`~repro.util.errors.CircuitOpenError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.exec.resilience import RunReport
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY, CounterSet
from repro.util.rng import stream

log = get_logger("serve.resilience")

#: breaker defaults (overridable per engine via ServeConfig)
BREAKER_THRESHOLD = 5
BREAKER_OPEN_S = 0.25

#: breaker states, in the order a recovery walks them
BREAKER_STATES = ("closed", "open", "half_open")


@dataclass
class ServeReport(CounterSet):
    """Tally of every serving-tier recovery event (one per engine).

    Counter semantics:

    - ``deadline_admission`` / ``deadline_dispatch`` / ``deadline_flush``
      — queries cancelled with ``DeadlineExceededError`` at each of the
      three deadline boundaries;
    - ``breaker_opens`` / ``breaker_half_opens`` / ``breaker_closes`` —
      state transitions (also recorded, model-tagged and ordered, in
      :attr:`transitions`); ``breaker_rejected`` — queries shed while a
      breaker was open;
    - ``batch_failures`` — batch executions that raised (fanned out as
      typed errors to every co-batched query);
    - ``slow_predicts`` — injected ``slow-predict`` faults observed
      (chaos-harness bookkeeping so the report can be asserted against
      the plan);
    - ``offloads`` — batch executions routed through the worker path
      instead of running on the event loop.

    ``worker`` is the shared :class:`RunReport` every offloaded
    ``run_tasks_resilient`` call accumulates into — worker crashes,
    retries, and timeouts land there under the PR-3 taxonomy.
    """

    PREFIX = "serve.resilience"

    deadline_admission: int = 0
    deadline_dispatch: int = 0
    deadline_flush: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    breaker_rejected: int = 0
    batch_failures: int = 0
    slow_predicts: int = 0
    offloads: int = 0
    #: model-tagged breaker transitions in event order: "ab12cd34ef56:open"
    transitions: List[str] = field(default_factory=list)
    #: worker-pool recovery tallies from offloaded runtime replay
    worker: RunReport = field(default_factory=RunReport)

    def transition(self, model: str, state: str) -> None:
        tag = f"{model[:12]}:{state}"
        self.transitions.append(tag)
        # live state gauge (closed=0 open=1 half_open=2): the telemetry
        # sampler and Prometheus exposition read breaker health from it
        REGISTRY.set_gauge(
            f"serve.breaker.{model[:12]}", float(BREAKER_STATES.index(state))
        )
        log.warning("breaker %s", tag)

    @property
    def deadline_expired(self) -> int:
        """Total queries cancelled by deadline, all boundaries."""
        return (
            self.deadline_admission
            + self.deadline_dispatch
            + self.deadline_flush
        )

    def to_dict(self) -> dict:
        doc = super().to_dict()
        doc["deadline_expired"] = self.deadline_expired
        return doc


class CircuitBreaker:
    """Per-model failure isolation: closed → open → half-open → closed.

    All methods take an explicit ``now`` (``perf_counter`` seconds) so
    the state machine is testable without sleeping.  The breaker is
    driven from exactly three call sites in the engine:

    - :meth:`admit` at query admission (fast shed while open);
    - :meth:`allow_dispatch` at dispatch (owns the open→half_open
      transition and the single-probe gate);
    - :meth:`record_success` / :meth:`record_failure` per batch
      execution outcome.
    """

    def __init__(
        self,
        model: str,
        *,
        threshold: int = BREAKER_THRESHOLD,
        open_s: float = BREAKER_OPEN_S,
        report: Optional[ServeReport] = None,
    ):
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        if not open_s > 0:
            raise ValueError(f"breaker open window must be positive, got {open_s}")
        self.model = model
        self.threshold = threshold
        self.open_s = open_s
        self.report = report
        self.state = "closed"
        self.failures = 0  #: consecutive batch failures while closed
        self.opens = 0  #: total open transitions (the jitter key)
        self._probe_at = 0.0
        self._probe_inflight = False

    def _jittered_window(self) -> float:
        """Open-window length with keyed-RNG jitter (+0%..+25%).

        Keyed by (model, open count): independent of wall time and every
        other breaker, so identical chaos runs re-probe identically and
        a fleet of breakers opened by one incident don't probe in sync.
        """
        u = stream("serve", "breaker", self.model, self.opens).uniform(1.0, 1.25)
        return float(self.open_s * u)

    def _open(self, now: float) -> None:
        self.state = "open"
        self.opens += 1
        self._probe_at = now + self._jittered_window()
        self._probe_inflight = False
        if self.report is not None:
            self.report.bump("breaker_opens")
            self.report.transition(self.model, "open")

    # -- gates ----------------------------------------------------------

    def admit(self, now: float) -> bool:
        """Admission-time fast check; False = shed with CircuitOpenError."""
        if self.state == "closed":
            return True
        if self.state == "open":
            return now >= self._probe_at
        return not self._probe_inflight  # half_open: room for the probe?

    def allow_dispatch(self, now: float) -> bool:
        """Dispatch-time gate; owns the open→half_open probe transition."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if now < self._probe_at:
                return False
            self.state = "half_open"
            self._probe_inflight = True
            if self.report is not None:
                self.report.bump("breaker_half_opens")
                self.report.transition(self.model, "half_open")
            return True
        # half_open: exactly one probe in flight at a time
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    # -- outcomes -------------------------------------------------------

    def record_success(self) -> None:
        self.failures = 0
        if self.state == "half_open":
            self.state = "closed"
            self._probe_inflight = False
            if self.report is not None:
                self.report.bump("breaker_closes")
                self.report.transition(self.model, "closed")
        # a straggler success while open (a pre-open batch landing late)
        # resets the failure streak but does not skip the probe

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.state == "half_open":
            self._open(now)  # the probe failed: fresh open window
        elif self.state == "closed" and self.failures >= self.threshold:
            self._open(now)


def replay_runtime_task(app, machine, target, trace, job) -> float:
    """One offloadable runtime replay: pure in its arguments.

    Module-level so pool workers can pickle it; pure so a retry after a
    crash (or the serial in-thread fallback) replays bit-identically.
    ``job`` is ``app``'s recorded job at ``target``, which the engine
    records once per target and passes to every replay of it (``None``:
    record it here).
    """
    from repro.pipeline.predict import predict_runtime

    return predict_runtime(app, int(target), trace, machine, job=job).runtime_s
