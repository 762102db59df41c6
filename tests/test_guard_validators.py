"""Unit tests: stage-boundary artifact validators and violation types.

Each validator turns bad data into typed, element-addressed
:class:`GuardViolation` values instead of letting it crash deep in the
numerics; these tests pin down exactly which check fires, at which
severity, addressing which element — and that clean artifacts produce
no violations at all.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.extrapolate import extrapolate_trace
from repro.guard.validators import (
    validate_fit_report,
    validate_machine_profile,
    validate_trace,
)
from repro.guard.violations import GuardError, GuardViolation, worst_severity
from repro.trace.features import FeatureSchema
from repro.trace.records import (
    BasicBlockRecord,
    InstructionRecord,
    SourceLocation,
)
from repro.trace.tracefile import TraceFile

SCHEMA = FeatureSchema(["L1", "L2"])


def make_trace(n_ranks=64, scale=1.0, extrapolated=False):
    """A small physically valid trace: 2 blocks x 2 instructions."""
    def instruction(bid, k):
        vec = SCHEMA.vector_from_dict(
            {
                "exec_count": 1000.0 * scale * (bid + k + 1),
                "mem_ops": 400.0 * scale,
                "loads": 300.0 * scale,
                "stores": 100.0 * scale,
                "ref_bytes": 8.0,
                "working_set_bytes": 4096.0,
                "ilp": 2.0,
                "dep_chain": 3.0,
                "hit_rate_L1": 0.9,
                "hit_rate_L2": 0.97,
            }
        )
        return InstructionRecord(instr_id=k, kind="load", features=vec)

    return TraceFile.from_blocks(
        [
            BasicBlockRecord(
                block_id=bid,
                location=SourceLocation(function=f"f{bid}"),
                instructions=[instruction(bid, k) for k in range(2)],
            )
            for bid in (0, 1)
        ],
        app="guardtest", rank=0, n_ranks=n_ranks, target="tgt", schema=SCHEMA,
        extrapolated=extrapolated,
    )


def _set(trace, bid, k, feature, value):
    trace.features[trace.row(bid, k), SCHEMA.index(feature)] = value


class TestTraceValidator:
    def test_clean_trace_no_violations(self):
        assert validate_trace(make_trace(), boundary="collect->fit") == []

    def test_nan_flagged_once_element_addressed(self):
        trace = make_trace()
        _set(trace, 1, 0, "exec_count", float("nan"))
        violations = validate_trace(trace, boundary="collect->fit")
        assert len(violations) == 1  # finite check only, not also count
        v = violations[0]
        assert v.check == "finite" and v.severity == "error"
        assert (v.block_id, v.instr_id, v.feature) == (1, 0, "exec_count")
        assert v.element_addressed
        assert "block 1 instr 0 feature 'exec_count'" in v.describe()

    def test_negative_count_flagged(self):
        trace = make_trace()
        _set(trace, 0, 1, "mem_ops", -5.0)
        (v,) = validate_trace(trace, boundary="collect->fit")
        assert v.check == "count-negative"
        assert (v.block_id, v.instr_id, v.feature) == (0, 1, "mem_ops")

    def test_rate_out_of_range_flagged(self):
        trace = make_trace()
        _set(trace, 0, 0, "hit_rate_L2", 1.4)
        checks = {
            v.check for v in validate_trace(trace, boundary="collect->fit")
        }
        assert "rate-range" in checks

    def test_rate_tolerance_absorbs_float_noise(self):
        trace = make_trace()
        _set(trace, 0, 0, "hit_rate_L2", 1.0 + 1e-12)
        assert validate_trace(trace, boundary="collect->fit") == []

    def test_monotonicity_flags_outer_level_of_drop(self):
        trace = make_trace()
        _set(trace, 1, 1, "hit_rate_L2", 0.5)  # below L1's 0.9
        (v,) = validate_trace(trace, boundary="collect->fit")
        assert v.check == "rate-monotone"
        assert v.feature == "hit_rate_L2"  # the outer (dropping) level

    def test_schema_width_mismatch_is_fatal_and_preempts(self):
        trace = make_trace()
        # poison values too — they must NOT be reported, since element
        # addressing by column is meaningless with a bad width
        trace.features = np.full((trace.n_instructions, 3), np.nan)
        violations = validate_trace(trace, boundary="collect->fit")
        assert [v.check for v in violations] == ["schema"]
        assert violations[0].severity == "fatal"
        assert not violations[0].element_addressed
        assert "(4, 3)" in violations[0].message

    def test_nonpositive_ranks_is_fatal(self):
        trace = make_trace(n_ranks=0)
        checks = {
            v.severity
            for v in validate_trace(trace, boundary="collect->fit")
            if v.check == "n-ranks"
        }
        assert checks == {"fatal"}

    def test_extrapolated_marker_postcondition(self):
        trace = make_trace(extrapolated=False)
        violations = validate_trace(
            trace, boundary="extrapolate->predict",
            artifact="extrapolated-trace",
        )
        assert [v.check for v in violations] == ["extrapolated-marker"]
        trace.extrapolated = True
        assert validate_trace(trace, boundary="extrapolate->predict") == []


class TestFitReportValidator:
    @pytest.fixture(scope="class")
    def fit_report(self):
        traces = [make_trace(n, scale=n / 16.0) for n in (16, 32, 64)]
        return extrapolate_trace(traces, 256).report

    def test_clean_fit_report(self, fit_report):
        assert validate_fit_report(fit_report) == []

    def test_nonfinite_params_flagged(self, fit_report):
        # poison the selected form's parameters of one element (row 1)
        report = copy.deepcopy(fit_report)
        batch = report.batch
        batch.params[batch.order[1, 0]][1] = np.nan
        violations = validate_fit_report(report)
        assert violations and all(v.check == "fit-finite" for v in violations)
        assert violations[0].element_addressed
        (v,) = violations
        assert (v.block_id, v.instr_id) == report.pair_keys[0]
        assert v.feature == SCHEMA.fields[1]
        assert "non-finite parameters" in v.message

    def test_nonfinite_sse_flagged(self, fit_report):
        # an unselected form's SSE is not the fit's business
        report = copy.deepcopy(fit_report)
        batch = report.batch
        n_f = SCHEMA.n_features
        last = batch.order[n_f, batch.n_candidates[n_f] - 1]
        batch.sse[n_f, last] = np.inf
        batch.sse[n_f + 2, batch.order[n_f + 2, 0]] = np.inf
        (v,) = validate_fit_report(report)
        assert (v.block_id, v.instr_id) == report.pair_keys[1]
        assert v.feature == SCHEMA.fields[2]
        assert "non-finite SSE" in v.message


class TestMachineProfileValidator:
    def test_clean_profile(self, bw_machine):
        assert validate_machine_profile(bw_machine) == []

    def test_nonpositive_fp_rate_fatal(self, bw_machine):
        profile = copy.deepcopy(bw_machine)
        profile.fp_rates_gflops["fp_add"] = 0.0
        (v,) = validate_machine_profile(profile)
        assert v.check == "fp-rate" and v.severity == "fatal"

    def test_nonfinite_network_parameter_fatal(self, bw_machine):
        profile = copy.deepcopy(bw_machine)
        profile.network = dataclasses.replace(
            profile.network, latency_us=float("inf")
        )
        (v,) = validate_machine_profile(profile)
        assert v.check == "network" and "latency_us" in v.message

    def test_surface_crash_is_a_violation_not_an_exception(self, bw_machine):
        profile = copy.deepcopy(bw_machine)

        class Broken:
            def bandwidth_gbs(self, *a, **k):
                raise RuntimeError("boom")

        profile.surface = Broken()
        violations = validate_machine_profile(profile)
        assert violations and violations[0].check == "surface"

    def test_nonphysical_surface_output_fatal(self, bw_machine, monkeypatch):
        profile = copy.deepcopy(bw_machine)
        monkeypatch.setattr(
            type(profile),
            "memory_bandwidth_gbs",
            lambda self, rates: np.full(np.asarray(rates).shape[0], -1.0),
        )
        (v,) = validate_machine_profile(profile)
        assert v.check == "surface" and v.severity == "fatal"


class TestViolationTypes:
    def test_partial_address_renders(self):
        v = GuardViolation(
            artifact="trace", boundary="collect->fit", check="schema",
            message="bad width", severity="fatal", block_id=3, instr_id=1,
        )
        assert not v.element_addressed  # feature missing
        assert v.element == "block 3 instr 1"
        assert "element block 3 instr 1" in v.describe()

    def test_worst_severity_ranking(self):
        mk = lambda s: GuardViolation(  # noqa: E731
            artifact="trace", boundary="b", check="c", message="m", severity=s
        )
        assert worst_severity([mk("warn"), mk("fatal"), mk("error")]) == "fatal"
        assert worst_severity([]) is None

    def test_guard_error_message_leads_with_worst(self):
        err = GuardError(
            [
                GuardViolation(
                    artifact="trace", boundary="b", check="finite",
                    message="nan", severity="error", block_id=0, instr_id=0,
                    feature="exec_count",
                ),
                GuardViolation(
                    artifact="trace", boundary="b", check="n-ranks",
                    message="bad ranks", severity="fatal",
                ),
            ]
        )
        text = str(err)
        assert text.startswith("trace: bad ranks")  # fatal sorts first
        assert "(+1 more)" in text

    def test_guard_error_without_evidence(self):
        assert "refused" in str(GuardError([]))
