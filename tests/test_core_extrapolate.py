"""Unit tests: per-element fitting, influence filtering, trace extrapolation."""

import dataclasses

import numpy as np
import pytest

from repro.core.canonical import EXTENDED_FORMS, PAPER_FORMS
from repro.core.errors import abs_rel_error, percent, signed_rel_error
from repro.core.extrapolate import (
    extrapolate_trace,
    extrapolate_trace_many,
    fit_traces,
    reference_matrices,
    synthesize_from_prediction,
)
from repro.core.fitting import fit_feature_series
from repro.core.influence import influential_instructions
from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation
from repro.trace.tracefile import TraceFile
from repro.util.errors import FitError

SCHEMA = FeatureSchema(["L1", "L2"])


def synthetic_trace(n_ranks, *, base=1e9, hit_slope=2e-5, kind="load",
                    extra=(), blocks=(0, 1)):
    """A trace whose features follow known scaling laws.

    ``kind`` is the hot load's kind, ``extra`` instructions follow it in
    block 0, and ``blocks`` picks which of the two blocks to keep.
    """
    exec_count = base / n_ranks  # strong scaling
    hot = InstructionRecord(
        instr_id=0,
        kind=kind,
        features=SCHEMA.vector_from_dict(
            {
                "exec_count": exec_count,
                "mem_ops": 5 * exec_count,
                "loads": 5 * exec_count,
                "ref_bytes": 8.0,
                "working_set_bytes": 8 * base / n_ranks,
                "hit_rate_L1": 0.875,  # constant
                "hit_rate_L2": min(0.875 + hit_slope * n_ranks, 1.0),
            }
        ),
    )
    # a log-growing block (reduction stages)
    reduce = InstructionRecord(
        instr_id=0,
        kind="load",
        features=SCHEMA.vector_from_dict(
            {
                "exec_count": 1000 * np.log2(n_ranks),
                "mem_ops": 2000 * np.log2(n_ranks),
                "loads": 2000 * np.log2(n_ranks),
                "ref_bytes": 8.0,
                "working_set_bytes": 32768.0,
                "hit_rate_L1": 0.99,
                "hit_rate_L2": 1.0,
            }
        ),
    )
    records = [
        BasicBlockRecord(0, SourceLocation(function="hot"), [hot, *extra]),
        BasicBlockRecord(1, SourceLocation(function="reduce"), [reduce]),
    ]
    return TraceFile.from_blocks(
        [b for b in records if b.block_id in blocks],
        app="synt", rank=0, n_ranks=n_ranks, target="tgt", schema=SCHEMA,
    )


TRAIN = [synthetic_trace(p) for p in (1024, 2048, 4096)]


class TestFitFeatureSeries:
    def test_histogram_and_lookup(self):
        series = np.stack(
            [t.blocks[0].instructions[0].features for t in TRAIN]
        )[None]
        report = fit_feature_series(
            SCHEMA, [1024, 2048, 4096], series, pair_keys=[(0, 0)]
        )
        assert sum(report.form_histogram().values()) == SCHEMA.n_features
        # rows are pair-major, feature-minor
        row = (
            report.pair_keys.index((0, 0)) * SCHEMA.n_features
            + SCHEMA.index("hit_rate_L1")
        )
        assert report.batch.forms[report.batch.order[row, 0]].name == (
            "constant"
        )

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            fit_feature_series(
                SCHEMA, [8, 16, 32], np.zeros((1, 2, SCHEMA.n_features)),
                pair_keys=[(0, 0)],
            )

    def test_counts_must_ascend(self):
        with pytest.raises(ValueError):
            fit_feature_series(
                SCHEMA, [32, 16, 8], np.zeros((1, 3, SCHEMA.n_features)),
                pair_keys=[(0, 0)],
            )


class TestExtrapolateTrace:
    def test_structure_preserved(self):
        res = extrapolate_trace(TRAIN, 8192)
        assert res.trace.extrapolated is True
        assert res.trace.n_ranks == 8192
        assert sorted(res.trace.blocks) == [0, 1]
        assert res.trace.blocks[0].n_instructions == 1
        assert res.trace.blocks[0].location.function == "hot"

    def test_constant_hit_rate_exact(self):
        res = extrapolate_trace(TRAIN, 8192)
        vec = res.trace.blocks[0].instructions[0].features
        assert vec[SCHEMA.index("hit_rate_L1")] == pytest.approx(0.875)

    def test_rising_hit_rate_tracked(self):
        res = extrapolate_trace(TRAIN, 8192)
        vec = res.trace.blocks[0].instructions[0].features
        true = 0.875 + 2e-5 * 8192
        assert vec[SCHEMA.index("hit_rate_L2")] == pytest.approx(min(true, 1.0), rel=0.02)

    def test_log_growth_tracked(self):
        res = extrapolate_trace(TRAIN, 8192)
        vec = res.trace.blocks[1].instructions[0].features
        assert vec[SCHEMA.index("mem_ops")] == pytest.approx(
            2000 * np.log2(8192), rel=0.02
        )

    def test_hit_rates_within_bounds_and_monotone(self):
        res = extrapolate_trace(TRAIN, 65536)
        for block in res.trace.blocks.values():
            for ins in block.instructions:
                rates = SCHEMA.hit_rates(ins.features)
                assert np.all(rates >= 0.0) and np.all(rates <= 1.0)
                assert np.all(np.diff(rates) >= 0)

    def test_counts_never_negative(self):
        res = extrapolate_trace(TRAIN, 10**6)
        for block in res.trace.blocks.values():
            for ins in block.instructions:
                for f in ("exec_count", "mem_ops", "loads", "stores"):
                    assert ins.features[SCHEMA.index(f)] >= 0.0

    def test_ratio_preservation_under_strong_scaling(self):
        """mem_ops / exec_count must survive extrapolation intact."""
        res = extrapolate_trace(TRAIN, 8192)
        vec = res.trace.blocks[0].instructions[0].features
        exec_count = vec[SCHEMA.index("exec_count")]
        mem_ops = vec[SCHEMA.index("mem_ops")]
        assert exec_count > 0
        assert mem_ops / exec_count == pytest.approx(5.0, rel=1e-6)

    def test_extended_forms_fix_absolute_counts(self):
        res_paper = extrapolate_trace(TRAIN, 8192, forms=PAPER_FORMS)
        res_ext = extrapolate_trace(TRAIN, 8192, forms=EXTENDED_FORMS)
        true = 5 * 1e9 / 8192
        idx = SCHEMA.index("mem_ops")
        err_paper = abs_rel_error(true, res_paper.trace.blocks[0].instructions[0].features[idx])
        err_ext = abs_rel_error(true, res_ext.trace.blocks[0].instructions[0].features[idx])
        assert err_ext < 0.01
        assert err_ext <= err_paper

    def test_needs_two_traces(self):
        with pytest.raises(ValueError):
            extrapolate_trace(TRAIN[:1], 8192)

    def test_duplicate_counts_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_trace([TRAIN[0], synthetic_trace(1024)], 8192)

    def test_inconsistent_structure_rejected(self):
        other = synthetic_trace(2048, blocks=(0,))
        with pytest.raises(ValueError):
            extrapolate_trace([TRAIN[0], other, TRAIN[2]], 8192)

    def test_mixed_instruction_kinds_rejected(self):
        """A load at one count and a store at another is not one series."""
        other = synthetic_trace(2048, kind="store")
        with pytest.raises(FitError, match="kinds"):
            extrapolate_trace([TRAIN[0], other, TRAIN[2]], 8192)

    def test_mixed_instruction_ids_rejected(self):
        other = synthetic_trace(2048)
        other = dataclasses.replace(other, instr_ids=other.instr_ids + 1)
        with pytest.raises(FitError, match="instr_ids"):
            extrapolate_trace([TRAIN[0], other, TRAIN[2]], 8192)

    def test_mismatched_apps_rejected(self):
        other = synthetic_trace(2048)
        other.app = "different"
        with pytest.raises(ValueError):
            extrapolate_trace([TRAIN[0], other], 8192)

    def test_traces_sorted_automatically(self):
        res = extrapolate_trace([TRAIN[2], TRAIN[0], TRAIN[1]], 8192)
        assert res.report.core_counts == [1024, 2048, 4096]

    def test_bad_target(self):
        with pytest.raises(ValueError):
            extrapolate_trace(TRAIN, 0)

    @pytest.mark.parametrize("path", ["batched", "reference"])
    def test_saturating_rate_series_stays_bounded(self, path):
        """Regression: the rate trust region must not resurrect
        out-of-bounds values.

        A loaded trace can carry rate values slightly above 1 (nothing
        validates them at load time).  The bounds clamp fixes the
        prediction to 1.0, but the trust region's lower edge
        ``last - factor*spread`` sits *above* 1 for such a series, so
        the cap used to push the value back out of range — and
        ``np.maximum.accumulate`` then propagated it outward through
        the hierarchy.  The batch path and the scalar oracle must both
        re-clamp after the cap and after monotonization.
        """
        train = []
        for p in (1024, 2048, 4096):
            t = synthetic_trace(p)
            # constant saturating series just above the bound: spread =
            # 0, so the trust region degenerates to {1.05}, above the
            # [0, 1] range
            t.features[:, SCHEMA.index("hit_rate_L1")] = 1.05
            train.append(t)
        res = extrapolate_trace(train, 8192)
        features = res.trace.features
        if path == "reference":
            (features,) = reference_matrices(
                res.report, range(len(res.report.pair_keys)), [8192],
                forms=PAPER_FORMS, rate_trust_factor=2.0,
            )
        for vec in features:
            rates = SCHEMA.hit_rates(vec)
            assert np.all(rates >= 0.0) and np.all(rates <= 1.0)
            assert np.all(np.diff(rates) >= 0)

    def test_selection_is_pure(self):
        """Regression: predicting at a target must not change diagnostics."""
        report = extrapolate_trace(TRAIN, 8192).report
        before = report.form_histogram()
        order, Y = report.batch.order.copy(), report.batch.Y.copy()
        # predictions at adversarial targets used to mutate the stored
        # selection; the histogram, the ranking and the series must not
        # move on either path
        for target in (2, 8192, 10**9):
            report.predict_many([target])
            reference_matrices(
                report, range(len(report.pair_keys)), [target],
                forms=PAPER_FORMS, rate_trust_factor=2.0,
            )
        assert report.form_histogram() == before
        np.testing.assert_array_equal(report.batch.order, order)
        np.testing.assert_array_equal(report.batch.Y, Y)


class TestExtrapolateTraceMany:
    def test_sweep_matches_single_calls(self):
        targets = [8192, 16384, 32768]
        sweep = extrapolate_trace_many(TRAIN, targets)
        assert sweep.targets == targets
        for target in targets:
            single = extrapolate_trace(TRAIN, target).trace
            multi = sweep.trace_for(target)
            assert multi.n_ranks == target
            assert multi.extrapolated is True
            for bid in multi.blocks:
                for a, b in zip(
                    multi.blocks[bid].instructions,
                    single.blocks[bid].instructions,
                ):
                    assert np.array_equal(a.features, b.features)

    def test_synthesis_from_a_prediction_checks_its_template(self):
        report, template = fit_traces(TRAIN)
        prediction = report.predict_many([8192])
        trace = synthesize_from_prediction(template, prediction, 8192)
        np.testing.assert_array_equal(
            trace.features, extrapolate_trace(TRAIN, 8192).trace.features
        )
        other = synthetic_trace(1024, blocks=(0,))
        with pytest.raises(ValueError, match="different instructions"):
            synthesize_from_prediction(other, prediction, 8192)

    def test_one_report_shared(self):
        sweep = extrapolate_trace_many(TRAIN, [8192, 16384])
        assert all(r.report is sweep.report for r in sweep.results)

    def test_unknown_target_rejected(self):
        sweep = extrapolate_trace_many(TRAIN, [8192])
        with pytest.raises(KeyError):
            sweep.trace_for(999)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_trace_many(TRAIN, [])

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_trace_many(TRAIN, [8192, -1])


class TestInfluence:
    def test_threshold_filters_tiny_instructions(self):
        # a negligible instruction in block 0
        trace = synthetic_trace(1024, extra=[
            InstructionRecord(
                instr_id=1,
                kind="load",
                features=SCHEMA.vector_from_dict(
                    {"exec_count": 1.0, "mem_ops": 1.0, "loads": 1.0}
                ),
            )
        ])
        report = influential_instructions(trace, threshold=0.001)
        assert (0, 0) in report.influential_set()
        assert (0, 1) not in report.influential_set()
        assert report.total_instructions == 3
        assert 0 < report.coverage() < 1

    def test_fp_only_instruction_judged_by_fp_share(self):
        trace = synthetic_trace(1024, extra=[
            InstructionRecord(
                instr_id=1,
                kind="fp",
                features=SCHEMA.vector_from_dict(
                    {"exec_count": 100.0, "fp_fma": 1e9}
                ),
            )
        ])
        report = influential_instructions(trace)
        assert (0, 1) in report.influential_set()

    def test_all_influential_when_threshold_zero(self):
        trace = synthetic_trace(1024)
        report = influential_instructions(trace, threshold=0.0)
        assert report.n_influential == trace.n_instructions


class TestErrors:
    def test_abs_rel_error(self):
        assert abs_rel_error(100.0, 95.0) == pytest.approx(0.05)
        assert abs_rel_error(0.0, 0.0) == 0.0
        assert abs_rel_error(0.0, 1.0) == np.inf

    def test_signed(self):
        assert signed_rel_error(100.0, 110.0) == pytest.approx(0.1)
        assert signed_rel_error(100.0, 90.0) == pytest.approx(-0.1)

    def test_percent(self):
        assert percent(0.05) == 5.0
