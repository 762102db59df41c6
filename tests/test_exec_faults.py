"""Unit tests: the deterministic fault-injection harness.

The harness itself must be trustworthy before it can vouch for the
recovery paths: plans round-trip through JSON/env, match keys and
attempt numbers exactly, and each fault kind behaves as specified in
both serial and pooled execution.
"""

import json

import pytest

from repro.exec import faults
from repro.exec.faults import FaultPlan, FaultSpec
from repro.exec.pool import _WORKER_ENV, run_tasks
from repro.util.errors import TaskCrashError, TransientTaskError


class TestFaultSpec:
    def test_matches_key_pattern_and_attempt(self):
        spec = FaultSpec(key="collect:jacobi:*", kind="raise", attempts=(1, 3))
        assert spec.matches("collect:jacobi:8", 1)
        assert spec.matches("collect:jacobi:8:rank0", 3)
        assert not spec.matches("collect:jacobi:8", 2)
        assert not spec.matches("collect:uh3d:8", 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(key="x", kind="explode")

    def test_exact_key_match(self):
        spec = FaultSpec(key="task0", kind="crash")
        assert spec.matches("task0", 1)
        assert not spec.matches("task01", 1)


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(key="a*", kind="raise", attempts=(1, 2), message="boom"),
                FaultSpec(key="b", kind="hang", seconds=0.5),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_non_list(self):
        with pytest.raises(ValueError, match="list"):
            FaultPlan.from_json(json.dumps({"key": "a"}))

    def test_spec_for_filters_kinds(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(key="k", kind="corrupt"),
                FaultSpec(key="k", kind="raise"),
            )
        )
        assert plan.spec_for("k", 1, kinds=("raise",)).kind == "raise"
        assert plan.spec_for("k", 1, kinds=("corrupt",)).kind == "corrupt"
        assert plan.spec_for("k", 2) is None  # attempt 2 never fires

    def test_env_activation_inline_and_file(self, tmp_path, monkeypatch):
        plan = FaultPlan(specs=(FaultSpec(key="k", kind="raise"),))
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, plan.to_json())
        assert faults.active_plan() == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, f"@{path}")
        assert faults.active_plan() == plan

    def test_installed_plan_overrides_env(self, monkeypatch):
        env_plan = FaultPlan(specs=(FaultSpec(key="env", kind="raise"),))
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, env_plan.to_json())
        installed = FaultPlan(specs=(FaultSpec(key="inst", kind="raise"),))
        with faults.injected(installed):
            assert faults.active_plan() == installed
        assert faults.active_plan() == env_plan


class TestApplyFault:
    def test_noop_without_plan(self):
        faults.apply_fault("anything", 1)  # must not raise

    def test_raise_kind(self):
        plan = FaultPlan(specs=(FaultSpec(key="k", kind="raise", message="zap"),))
        with faults.injected(plan):
            with pytest.raises(TransientTaskError, match="zap"):
                faults.apply_fault("k", 1)
            faults.apply_fault("k", 2)  # attempt 2 clean

    def test_crash_kind_serial_raises_instead_of_exiting(self):
        # outside a pool worker a crash fault must never kill the
        # calling process (that would take the test runner down)
        plan = FaultPlan(specs=(FaultSpec(key="k", kind="crash"),))
        with faults.injected(plan):
            with pytest.raises(TaskCrashError):
                faults.apply_fault("k", 1)

    def test_hang_kind_sleeps(self):
        import time

        plan = FaultPlan(specs=(FaultSpec(key="k", kind="hang", seconds=0.05),))
        with faults.injected(plan):
            start = time.monotonic()
            faults.apply_fault("k", 1)
            assert time.monotonic() - start >= 0.04

    def test_poison_trace_defaults_to_nan(self):
        from tests.test_guard_validators import SCHEMA, make_trace

        trace = make_trace()
        plan = FaultPlan(specs=(FaultSpec(key="k", kind="poison-trace"),))
        with faults.injected(plan):
            assert faults.poison_trace(trace, "k") is trace
        value = trace.blocks[0].instructions[0].features[
            SCHEMA.index("exec_count")
        ]
        assert value != value  # NaN (spec.value=None means NaN)

    def test_poison_trace_explicit_value_and_indices(self):
        from tests.test_guard_validators import SCHEMA, make_trace

        trace = make_trace()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    key="k", kind="poison-trace", feature="hit_rate_L1",
                    block_index=1, instr_index=1, value=2.5,
                ),
            )
        )
        with faults.injected(plan):
            faults.poison_trace(trace, "k")
        vec = trace.blocks[1].instructions[1].features
        assert vec[SCHEMA.index("hit_rate_L1")] == 2.5

    def test_poison_trace_indices_wrap_modulo(self):
        # indices beyond the trace's extent still land deterministically
        from tests.test_guard_validators import SCHEMA, make_trace

        trace = make_trace()  # 2 blocks x 2 instructions
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    key="k", kind="poison-trace",
                    block_index=5, instr_index=7, value=-9.0,
                ),
            )
        )
        with faults.injected(plan):
            faults.poison_trace(trace, "k")
        vec = trace.blocks[5 % 2].instructions[7 % 2].features
        assert vec[SCHEMA.index("exec_count")] == -9.0

    def test_poison_trace_noop_without_match(self):
        import numpy as np

        from tests.test_guard_validators import make_trace

        trace = make_trace()
        before = trace.features.copy()
        faults.poison_trace(trace, "k")  # no plan at all
        plan = FaultPlan(specs=(FaultSpec(key="other", kind="poison-trace"),))
        with faults.injected(plan):
            faults.poison_trace(trace, "k")
        np.testing.assert_array_equal(trace.features, before)

    def test_poison_spec_json_roundtrip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(key="p", kind="poison-trace"),  # value=None -> NaN
                FaultSpec(
                    key="q", kind="poison-trace", feature="mem_ops",
                    block_index=1, instr_index=0, value=-1.0,
                ),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        # None survives as JSON null, never the nonstandard NaN literal
        assert "NaN" not in plan.to_json()

    def test_check_corrupt_counts_stores_per_key(self):
        plan = FaultPlan(
            specs=(FaultSpec(key="c", kind="corrupt", attempts=(2,)),)
        )
        with faults.injected(plan):
            assert faults.planned("c", "corrupt") is None  # first store clean
            assert faults.planned("c", "corrupt").kind == "corrupt"  # second
            assert faults.planned("other", "corrupt") is None


def _probe(x):
    faults.apply_fault(f"probe{x}", 1)
    return x


class TestWorkerInheritance:
    def test_env_plan_reaches_forked_workers(self, monkeypatch):
        plan = FaultPlan(
            specs=(FaultSpec(key="probe1", kind="raise", message="in-worker"),)
        )
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, plan.to_json())
        with pytest.raises(TransientTaskError, match="in-worker"):
            run_tasks(_probe, [(0,), (1,), (2,)], workers=2)

    def test_crash_exit_reserved_for_workers(self, monkeypatch):
        # the in_worker() guard is what separates os._exit from raising;
        # simulate worker context and verify apply_fault would not raise
        # TaskCrashError there (we cannot call it: it would exit)
        monkeypatch.setenv(_WORKER_ENV, "1")
        from repro.exec.pool import in_worker

        assert in_worker()
