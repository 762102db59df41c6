"""Integration tests: the full pipeline on a small workload.

Collect -> extrapolate -> predict -> measure, exercising every subsystem
together the way the benchmark harness does, but at test-friendly sizes.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps.jacobi import JacobiParams, JacobiProxy
from repro.core.errors import abs_rel_error
from repro.core.extrapolate import extrapolate_trace
from repro.core.influence import influential_instructions
from repro.pipeline.collect import CollectionSettings, collect_signature
from repro.pipeline.experiment import Table1Config, run_table1
from repro.pipeline.predict import measure_runtime, predict_runtime
from repro.pipeline.report import table1_report
from repro.trace.diff import compare_traces

from tests.conftest import FAST_COLLECTOR, FAST_SETTINGS


class TestCollection:
    def test_signature_contents(self, small_jacobi, bw_machine):
        sig = collect_signature(
            small_jacobi, 8, bw_machine.hierarchy, FAST_SETTINGS
        )
        assert sig.n_ranks == 8
        assert len(sig.traces) == 1
        assert len(sig.compute_times) == 8
        trace = sig.slowest_trace()
        assert trace.n_blocks == 3
        assert trace.target == bw_machine.hierarchy.name

    def test_collect_specific_ranks(self, small_jacobi, bw_machine):
        settings = CollectionSettings(ranks=[0, 3], collector=FAST_COLLECTOR)
        sig = collect_signature(small_jacobi, 8, bw_machine.hierarchy, settings)
        assert sig.ranks == [0, 3]

    def test_collect_all_ranks(self, small_jacobi, bw_machine):
        settings = CollectionSettings(ranks="all", collector=FAST_COLLECTOR)
        sig = collect_signature(small_jacobi, 4, bw_machine.hierarchy, settings)
        assert sig.ranks == [0, 1, 2, 3]

    def test_bad_rank_rejected(self, small_jacobi, bw_machine):
        settings = CollectionSettings(ranks=[99], collector=FAST_COLLECTOR)
        with pytest.raises(ValueError):
            collect_signature(small_jacobi, 8, bw_machine.hierarchy, settings)

    def test_collection_deterministic(self, small_jacobi, bw_machine):
        t1 = collect_signature(
            small_jacobi, 8, bw_machine.hierarchy, FAST_SETTINGS
        ).slowest_trace()
        t2 = collect_signature(
            small_jacobi, 8, bw_machine.hierarchy, FAST_SETTINGS
        ).slowest_trace()
        for b1, b2 in zip(t1.blocks.values(), t2.blocks.values()):
            for i1, i2 in zip(b1.instructions, b2.instructions):
                np.testing.assert_array_equal(i1.features, i2.features)


class TestEndToEnd:
    def test_extrapolated_prediction_close_to_collected(
        self, small_jacobi, bw_machine, jacobi_traces
    ):
        target = 32
        res = extrapolate_trace(jacobi_traces, target)
        coll = collect_signature(
            small_jacobi, target, bw_machine.hierarchy, FAST_SETTINGS
        ).slowest_trace()
        job = small_jacobi.build_job(target)
        pred_e = predict_runtime(
            small_jacobi, target, res.trace, bw_machine, job=job
        )
        pred_c = predict_runtime(small_jacobi, target, coll, bw_machine, job=job)
        gap = abs_rel_error(pred_c.runtime_s, pred_e.runtime_s)
        assert gap < 0.30  # Jacobi has sharp transitions; proxies do better

    def test_prediction_vs_ground_truth(
        self, small_jacobi, bw_machine, bw_spec, jacobi_traces
    ):
        target = 16
        coll = jacobi_traces[2]
        job = small_jacobi.build_job(target)
        pred = predict_runtime(small_jacobi, target, coll, bw_machine, job=job)
        meas = measure_runtime(small_jacobi, target, bw_spec, job=job)
        assert abs_rel_error(meas.runtime_s, pred.runtime_s) < 0.25

    def test_trace_core_count_enforced(self, small_jacobi, bw_machine, jacobi_traces):
        with pytest.raises(ValueError):
            predict_runtime(small_jacobi, 64, jacobi_traces[0], bw_machine)

    def test_influential_elements_error_bound(
        self, small_jacobi, bw_machine, jacobi_traces
    ):
        """§IV's evaluation, miniaturized: influential-element errors."""
        target = 32
        res = extrapolate_trace(jacobi_traces, target)
        coll = collect_signature(
            small_jacobi, target, bw_machine.hierarchy, FAST_SETTINGS
        ).slowest_trace()
        influential = influential_instructions(coll)
        # hit rates of influential instructions must extrapolate well
        diff = compare_traces(
            coll,
            res.trace,
            fields=[f for f in coll.schema.fields if f.startswith("hit_rate")],
        )
        inf_set = influential.influential_set()
        inf_errors = [
            e.abs_rel_error
            for e in diff.errors
            if (e.block_id, e.instr_id) in inf_set
        ]
        assert inf_errors
        assert float(np.median(inf_errors)) < 0.20

    def test_full_table1_protocol_small(self, small_jacobi):
        cfg = Table1Config(
            collection=FAST_SETTINGS, accesses_per_probe=20_000
        )
        result = run_table1(
            small_jacobi, train_counts=(4, 8, 16), target_count=32, config=cfg
        )
        assert len(result.rows) == 2
        types = {r.trace_type for r in result.rows}
        assert types == {"Extrap.", "Coll."}
        for row in result.rows:
            assert row.predicted_runtime_s > 0
            assert np.isfinite(row.pct_error)
        # the collected-trace prediction must be decent
        coll_row = next(r for r in result.rows if r.trace_type == "Coll.")
        assert coll_row.pct_error < 25.0
        report = table1_report(result.rows)
        assert "jacobi" in report and "Extrap." in report


    def test_table1_builds_the_target_job_once(self, monkeypatch):
        """Collection, both predictions and the ground truth share one
        target job."""
        app = JacobiProxy(JacobiParams(global_cells=(64, 64, 64), n_steps=2))
        built = []
        build = app.build_job

        def counting(n_ranks):
            built.append(n_ranks)
            return build(n_ranks)

        monkeypatch.setattr(app, "build_job", counting)
        cfg = Table1Config(
            collection=dataclasses.replace(FAST_SETTINGS, workers=0),
            accesses_per_probe=20_000,
        )
        run_table1(app, train_counts=(4, 8), target_count=16, config=cfg)
        assert built.count(16) == 1


class TestWhatIfStudies:
    def test_run_whatif_sweep(self, small_jacobi):
        """The training half of a what-if sweep, in core-count order.

        The sweep itself (one shared fit, a trace per target) is the
        DAG's what-if arm, covered in ``test_pipeline_dag.py``.
        """
        from repro.pipeline.experiment import collect_training_traces

        cfg = Table1Config(
            collection=FAST_SETTINGS, accesses_per_probe=20_000
        )
        training = collect_training_traces(small_jacobi, (4, 8, 16), cfg)
        assert [t.n_ranks for t in training] == [4, 8, 16]

    def test_table3_style_l1_sensitivity(self, small_jacobi):
        """Same app, two targets differing only in L1 size (Table III)."""
        from repro.cache.configs import system_a, system_b

        t_a = collect_signature(
            small_jacobi, 8, system_a(), FAST_SETTINGS
        ).slowest_trace()
        t_b = collect_signature(
            small_jacobi, 8, system_b(), FAST_SETTINGS
        ).slowest_trace()
        ia, ib = t_a.schema.index("hit_rate_L1"), t_b.schema.index("hit_rate_L1")
        # bigger L1 can only help
        for bid in t_a.blocks:
            for k, ins in enumerate(t_a.blocks[bid].instructions):
                ra = ins.features[ia]
                rb = t_b.blocks[bid].instructions[k].features[ib]
                assert rb >= ra - 0.02
