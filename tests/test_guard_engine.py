"""Unit tests: the guarded extrapolation engine and degradation ladder.

The load-bearing invariant — clean inputs produce bit-identical output
with guards on or off — plus each rung of the ladder: element
hold-nearest, whole-trace substitution, refusal, and the strict policy
short-circuiting all of it with an element-addressed error.
"""

import numpy as np
import pytest

from repro.core.canonical import PAPER_FORMS
from repro.core.extrapolate import extrapolate_trace_many, reference_matrices
from repro.core.fitting import BatchedFitReport
from repro.exec.sigcache import SignatureCache  # noqa: F401 (import check)
from repro.guard.config import GuardConfig
from repro.guard.degrade import DegradationReport
from repro.guard.engine import (
    check_prediction_inputs,
    check_signature,
    guarded_extrapolate,
    guarded_extrapolate_many,
)
from repro.guard.violations import GuardError
from repro.obs.metrics import REGISTRY
from repro.trace.signature import ApplicationSignature
from repro.util.errors import FitError
from repro.util.validation import ValidationError

from tests.test_guard_validators import SCHEMA, _set, make_trace

TARGETS = [128, 512]


def fresh_traces():
    return [make_trace(n, scale=n / 16.0) for n in (16, 32, 64)]


def stacked(sweep):
    return [r.trace.features for r in sweep.results]


@pytest.fixture(autouse=True)
def _fresh_registry():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


class TestConfig:
    def test_policies_and_properties(self):
        assert GuardConfig(policy="strict").strict
        assert GuardConfig(policy="degrade").enabled
        assert not GuardConfig(policy="off").enabled

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            GuardConfig(policy="panic")

    def test_bad_threshold_is_validation_error(self):
        with pytest.raises(ValidationError):
            GuardConfig(trust_threshold=-1.0)


class TestCleanBitIdentity:
    def test_guarded_equals_unguarded_on_clean_inputs(self):
        traces = fresh_traces()
        plain = extrapolate_trace_many(traces, TARGETS)
        sweep, report = guarded_extrapolate_many(
            fresh_traces(), TARGETS, config=GuardConfig(policy="degrade"),
        )
        assert report.clean
        for a, b in zip(stacked(plain), stacked(sweep)):
            np.testing.assert_array_equal(a, b)

    def test_spot_check_ran_on_batched_engine(self):
        _, report = guarded_extrapolate_many(
            fresh_traces(), TARGETS, config=GuardConfig(policy="degrade"),
        )
        assert report.n_spot_checks > 0
        assert report.n_spot_disagreements == 0

    def test_crossval_gate_populates_trust(self):
        _, report = guarded_extrapolate_many(
            fresh_traces(), TARGETS, config=GuardConfig(policy="degrade"),
        )
        # the synthetic series is exactly linear: every element survives
        assert report.trust_fraction == pytest.approx(1.0)
        assert report.crossval_median_error is not None

    def test_counters_mirrored_into_metrics(self):
        _, report = guarded_extrapolate_many(
            fresh_traces(), TARGETS, config=GuardConfig(policy="degrade"),
        )
        assert REGISTRY.counters.get("guard.spot_checks", 0) == (
            report.n_spot_checks
        )

    def test_guard_off_is_passthrough(self):
        sweep, report = guarded_extrapolate_many(
            fresh_traces(), TARGETS, config=None,
        )
        assert report.policy == "off" and report.clean
        assert [r.target_n_ranks for r in sweep.results] == TARGETS


def perturb_exec_count(monkeypatch, factor=2.0):
    """Make the batched synthesis scale every exec_count it predicts."""
    original = BatchedFitReport.predict_many

    def perturbed(self, targets, **kwargs):
        sweep = original(self, targets, **kwargs)
        sweep.values[:, :, SCHEMA.index("exec_count")] *= factor
        return sweep

    monkeypatch.setattr(BatchedFitReport, "predict_many", perturbed)


class TestSpotCheckRepair:
    """A batched output the scalar oracle disagrees with is repaired
    under ``degrade`` and refused under ``strict``."""

    def test_degrade_falls_back_to_the_oracle(self, monkeypatch):
        perturb_exec_count(monkeypatch)
        sweep, report = guarded_extrapolate_many(
            fresh_traces(), TARGETS, config=GuardConfig(policy="degrade"),
        )
        assert report.n_spot_disagreements > 0
        assert report.degraded_elements
        assert {d.action for d in report.degraded_elements} == {
            "reference-fallback"
        }
        flagged = {
            (d.block_id, d.instr_id, d.feature)
            for d in report.degraded_elements
        }
        assert flagged == {
            (f.block_id, f.instr_id, f.feature)
            for f in report.gate_flags
            if f.gate == "spot-check"
        }
        # the perturbed column disagrees at every sampled pair, so the
        # flagged pairs are the sample, and each row is the oracle's
        assert {feature for _, _, feature in flagged} == {"exec_count"}
        pairs = sorted({(bid, k) for bid, k, _ in flagged})
        assert len(pairs) == report.n_spot_checks
        fit = sweep.report
        oracle = reference_matrices(
            fit, [fit.pair_keys.index(p) for p in pairs], TARGETS,
            forms=PAPER_FORMS, rate_trust_factor=2.0,
        )
        for t, res in enumerate(sweep.results):
            for i, pair in enumerate(pairs):
                np.testing.assert_array_equal(
                    res.trace.features[res.trace.row(*pair)], oracle[t, i]
                )

    def test_strict_refuses_the_disagreement(self, monkeypatch):
        perturb_exec_count(monkeypatch)
        with pytest.raises(GuardError) as info:
            guarded_extrapolate_many(
                fresh_traces(), TARGETS, config=GuardConfig(policy="strict"),
            )
        checks = {v.check for v in info.value.violations}
        assert checks == {"spot-check"}
        assert all(
            v.feature == "exec_count" for v in info.value.violations
        )


class TestUsageErrors:
    def test_too_few_traces_stays_fit_error(self):
        with pytest.raises(FitError):
            guarded_extrapolate_many(
                fresh_traces()[:1], TARGETS,
                config=GuardConfig(policy="degrade"),
            )

    def test_nonpositive_target_stays_fit_error(self):
        with pytest.raises(FitError):
            guarded_extrapolate_many(
                fresh_traces(), [-4], config=GuardConfig(policy="degrade"),
            )


class TestLadderRung1:
    def test_single_poisoned_element_held_at_nearest(self):
        traces = fresh_traces()
        _set(traces[1], 1, 0, "exec_count", float("nan"))  # the 32-count
        result, report = guarded_extrapolate(
            traces, 256, config=GuardConfig(policy="degrade"),
        )
        assert report.n_violations == 1
        assert report.n_elements_degraded == 1
        (deg,) = report.degraded_elements
        assert (deg.block_id, deg.instr_id, deg.feature) == (1, 0, "exec_count")
        assert deg.action == "hold-nearest"
        # held at the largest valid training count's collected value
        expected = float(
            traces[2].features[traces[2].row(1, 0), SCHEMA.index("exec_count")]
        )
        assert deg.value == pytest.approx(expected)
        vec = result.trace.blocks[1].instructions[0].features
        assert vec[SCHEMA.index("exec_count")] == pytest.approx(expected)
        assert report.n_traces_degraded == 0

    def test_other_elements_unaffected_by_hold(self):
        clean_sweep, _ = guarded_extrapolate_many(
            fresh_traces(), TARGETS, config=GuardConfig(policy="degrade"),
        )
        traces = fresh_traces()
        _set(traces[0], 0, 0, "mem_ops", -3.0)
        dirty_sweep, report = guarded_extrapolate_many(
            traces, TARGETS, config=GuardConfig(policy="degrade"),
        )
        assert report.n_elements_degraded == 1
        j = SCHEMA.index("mem_ops")
        for a, b in zip(stacked(clean_sweep), stacked(dirty_sweep)):
            mask = np.ones(a.shape, dtype=bool)
            mask[0, j] = False  # pair (0,0) is row 0 of the stack
            np.testing.assert_array_equal(a[mask], b[mask])

    def test_held_rates_stay_monotone(self):
        traces = fresh_traces()
        _set(traces[2], 0, 0, "hit_rate_L1", 1.7)  # out of range
        result, report = guarded_extrapolate(
            traces, 256, config=GuardConfig(policy="degrade"),
        )
        # 1.7 breaks the range check AND leaves L2 below L1, so both
        # rate elements of the pair are flagged and held
        assert report.n_elements_degraded == 2
        assert {d.feature for d in report.degraded_elements} == {
            "hit_rate_L1", "hit_rate_L2",
        }
        rates = SCHEMA.hit_rates(result.trace.blocks[0].instructions[0].features)
        assert np.all(np.diff(rates) >= 0)
        assert np.all((rates >= 0) & (rates <= 1))


class TestLadderRung2:
    def test_mostly_poisoned_trace_substituted_whole(self):
        traces = fresh_traces()
        config = GuardConfig(policy="degrade", max_degraded_fraction=0.01)
        _set(traces[1], 0, 0, "exec_count", float("nan"))
        sweep, report = guarded_extrapolate_many(traces, TARGETS, config=config)
        assert report.n_traces_degraded == len(TARGETS)
        assert sweep.report is None  # no fit stands behind a substitute
        for deg, result in zip(report.degraded_traces, sweep.results):
            assert deg.action == "substitute-collected"
            assert deg.substitute_n_ranks == 64  # largest clean trace
            assert result.trace.n_ranks == deg.target
            assert result.trace.extrapolated
            assert result.report is None

    def test_structurally_broken_trace_dropped_not_fatal(self):
        traces = fresh_traces()
        traces[0].features = np.zeros((traces[0].n_instructions, 3))
        sweep, report = guarded_extrapolate_many(
            traces, TARGETS, config=GuardConfig(policy="degrade"),
        )
        # two usable traces remain: fit proceeds, nothing substituted
        assert report.n_violations == 1
        assert report.n_traces_degraded == 0
        assert [r.target_n_ranks for r in sweep.results] == TARGETS


class TestLadderRung3:
    def test_no_clean_trace_refuses_even_in_degrade(self):
        traces = fresh_traces()[:2]
        for t in traces:
            t.features = np.zeros((t.n_instructions, 3))
        report = DegradationReport(policy="degrade")
        with pytest.raises(GuardError):
            guarded_extrapolate_many(
                traces, TARGETS,
                config=GuardConfig(policy="degrade"), report=report,
            )
        assert report.n_refusals == 1


class TestStrictPolicy:
    def test_strict_raises_element_addressed(self):
        traces = fresh_traces()
        _set(traces[1], 1, 0, "exec_count", float("nan"))
        with pytest.raises(GuardError) as excinfo:
            guarded_extrapolate_many(
                traces, TARGETS, config=GuardConfig(policy="strict"),
            )
        message = str(excinfo.value)
        assert "block 1 instr 0 feature 'exec_count'" in message
        assert "finite" in message

    def test_strict_clean_run_matches_unguarded(self):
        plain = extrapolate_trace_many(fresh_traces(), TARGETS)
        sweep, report = guarded_extrapolate_many(
            fresh_traces(), TARGETS, config=GuardConfig(policy="strict"),
        )
        assert report.clean
        for a, b in zip(stacked(plain), stacked(sweep)):
            np.testing.assert_array_equal(a, b)


class TestBoundaryChecks:
    def _signature(self, poisoned=False):
        sig = ApplicationSignature(
            app="guardtest", n_ranks=64, target="tgt", compute_times={0: 1.0}
        )
        trace = make_trace(64)
        if poisoned:
            _set(trace, 0, 0, "exec_count", float("nan"))
        sig.add_trace(trace)
        return sig

    def test_check_signature_degrade_records_and_proceeds(self):
        report = DegradationReport(policy="degrade")
        violations = check_signature(
            self._signature(poisoned=True),
            config=GuardConfig(policy="degrade"), report=report,
        )
        assert len(violations) == 1 and report.n_violations == 1

    def test_check_signature_strict_refuses(self):
        with pytest.raises(GuardError):
            check_signature(
                self._signature(poisoned=True),
                config=GuardConfig(policy="strict"),
                report=DegradationReport(policy="strict"),
            )

    def test_check_signature_disabled_is_noop(self):
        report = DegradationReport(policy="off")
        assert check_signature(
            self._signature(poisoned=True), config=None, report=report
        ) == []
        assert report.clean

    def test_prediction_inputs_clean(self, bw_machine):
        report = DegradationReport(policy="degrade")
        assert check_prediction_inputs(
            make_trace(64), bw_machine,
            config=GuardConfig(policy="degrade"), report=report,
        ) == []

    def test_broken_profile_refuses_under_degrade(self, bw_machine):
        import copy

        profile = copy.deepcopy(bw_machine)
        profile.fp_rates_gflops["fp_mul"] = float("nan")
        report = DegradationReport(policy="degrade")
        with pytest.raises(GuardError, match="fp rate"):
            check_prediction_inputs(
                make_trace(64), profile,
                config=GuardConfig(policy="degrade"), report=report,
            )
        assert report.n_refusals == 1
