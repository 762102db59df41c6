"""Unit tests: Eq. 1 convolution and the ground-truth simulator."""

import numpy as np
import pytest

from repro.cache.configs import blue_waters_p1
from repro.instrument.builder import ProgramBuilder
from repro.machine.systems import get_spec
from repro.memstream.patterns import RandomPattern, StridedPattern
from repro.psins.convolution import (
    ComputationModel,
    ConvolutionConfig,
    combine_with_overlap,
)
from repro.psins.ground_truth import (
    GroundTruthConfig,
    GroundTruthTimer,
    _pattern_randomness,
    measure_job,
)
from repro.psins.replay import replay_job, UniformTimer
from repro.simmpi.runtime import run_job
from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation
from repro.trace.tracefile import TraceFile
from repro.util.units import KB, MB


def make_trace(machine, mem_ops=1000.0, exec_count=100.0, hit=(1.0, 1.0, 1.0),
               fp=0.0, ilp=2.0):
    schema = FeatureSchema(machine.hierarchy.level_names)
    vec = schema.vector_from_dict(
        {
            "exec_count": exec_count,
            "mem_ops": mem_ops,
            "loads": mem_ops,
            "ref_bytes": 8.0,
            "working_set_bytes": 4096.0,
            "fp_add": fp,
            "ilp": ilp,
            "hit_rate_L1": hit[0],
            "hit_rate_L2": hit[1],
            "hit_rate_L3": hit[2],
        }
    )
    block = BasicBlockRecord(
        block_id=0,
        location=SourceLocation(function="f"),
        instructions=[InstructionRecord(instr_id=0, kind="load", features=vec)],
    )
    return TraceFile.from_blocks(
        [block], app="t", rank=0, n_ranks=4, target=machine.hierarchy.name,
        schema=schema,
    )


class TestOverlap:
    def test_full_overlap_hides_smaller(self):
        assert combine_with_overlap(10.0, 4.0, 1.0) == 10.0

    def test_no_overlap_sums(self):
        assert combine_with_overlap(10.0, 4.0, 0.0) == 14.0

    def test_symmetric(self):
        assert combine_with_overlap(4.0, 10.0, 0.5) == combine_with_overlap(
            10.0, 4.0, 0.5
        )


class TestComputationModel:
    def test_memory_time_matches_eq1(self, bw_machine):
        trace = make_trace(bw_machine, mem_ops=1_000_000, hit=(1.0, 1.0, 1.0))
        model = ComputationModel(trace, bw_machine)
        bw = float(bw_machine.memory_bandwidth_gbs(np.array([1.0, 1.0, 1.0])))
        expected_ns = 1_000_000 * 8.0 / bw
        assert model.breakdown(0).memory_time_s == pytest.approx(
            expected_ns * 1e-9, rel=1e-9
        )

    def test_lower_hit_rates_cost_more(self, bw_machine):
        fast = ComputationModel(
            make_trace(bw_machine, hit=(1.0, 1.0, 1.0)), bw_machine
        ).total_compute_time_s()
        slow = ComputationModel(
            make_trace(bw_machine, hit=(0.2, 0.4, 0.6)), bw_machine
        ).total_compute_time_s()
        assert slow > fast * 2

    def test_fp_time_and_overlap(self, bw_machine):
        trace = make_trace(bw_machine, mem_ops=0.0, fp=1e6, ilp=1.0)
        model = ComputationModel(trace, bw_machine)
        b = model.breakdown(0)
        assert b.memory_time_s == 0.0
        rate = bw_machine.fp_rates_gflops["fp_add"] * 1e9
        assert b.fp_time_s == pytest.approx(1e6 / rate)
        assert b.total_time_s == pytest.approx(b.fp_time_s)

    def test_ilp_scales_fp(self, bw_machine):
        t1 = ComputationModel(
            make_trace(bw_machine, mem_ops=0.0, fp=1e6, ilp=1.0), bw_machine
        ).total_compute_time_s()
        t4 = ComputationModel(
            make_trace(bw_machine, mem_ops=0.0, fp=1e6, ilp=4.0), bw_machine
        ).total_compute_time_s()
        assert t1 == pytest.approx(4 * t4)
        # ilp beyond max_issue_width is capped
        t8 = ComputationModel(
            make_trace(bw_machine, mem_ops=0.0, fp=1e6, ilp=8.0), bw_machine
        ).total_compute_time_s()
        assert t8 == pytest.approx(t4)

    def test_iteration_time(self, bw_machine):
        trace = make_trace(bw_machine, exec_count=100.0)
        model = ComputationModel(trace, bw_machine)
        assert model.iteration_time_s(0) == pytest.approx(
            model.breakdown(0).total_time_s / 100.0
        )

    def test_target_mismatch_rejected(self, bw_machine):
        trace = make_trace(bw_machine)
        trace.target = "other-machine"
        with pytest.raises(ValueError):
            ComputationModel(trace, bw_machine)

    def test_unknown_block(self, bw_machine):
        model = ComputationModel(make_trace(bw_machine), bw_machine)
        with pytest.raises(KeyError):
            model.breakdown(13)

    def test_memory_fraction(self, bw_machine):
        model = ComputationModel(make_trace(bw_machine, fp=10.0), bw_machine)
        assert 0.0 < model.memory_fraction() <= 1.0

    def test_overlap_config(self, bw_machine):
        trace = make_trace(bw_machine, mem_ops=1e6, fp=1e6, ilp=1.0)
        t_none = ComputationModel(
            trace, bw_machine, ConvolutionConfig(overlap=0.0)
        ).total_compute_time_s()
        t_full = ComputationModel(
            trace, bw_machine, ConvolutionConfig(overlap=1.0)
        ).total_compute_time_s()
        assert t_none > t_full


class TestGroundTruth:
    def make_program(self, exec_count=2000):
        return (
            ProgramBuilder("gt")
            .block("hot", block_id=0)
            .load(StridedPattern(region_bytes=8 * KB), per_iteration=4)
            .fp({"fp_fma": 8}, ilp=2.0, dep_chain=4.0)
            .executes(exec_count)
            .done()
            .block("tlb-hungry", block_id=1)
            .load(RandomPattern(region_bytes=64 * MB))
            .executes(exec_count)
            .done()
            .build()
        )

    def test_iteration_times_positive(self, bw_spec):
        timer = GroundTruthTimer(
            self.make_program(), bw_spec.hierarchy, bw_spec.timing,
            GroundTruthConfig(sample_accesses=20_000),
        )
        assert timer.iteration_time_s(0) > 0
        assert timer.iteration_time_s(1) > 0

    def test_tlb_penalty_applies_to_large_random(self, bw_spec):
        cfg_on = GroundTruthConfig(sample_accesses=20_000)
        cfg_off = GroundTruthConfig(sample_accesses=20_000, tlb_miss_ns=0.0)
        t_on = GroundTruthTimer(
            self.make_program(), bw_spec.hierarchy, bw_spec.timing, cfg_on
        )
        t_off = GroundTruthTimer(
            self.make_program(), bw_spec.hierarchy, bw_spec.timing, cfg_off
        )
        # block 1 (64MB random) pays TLB; block 0 (8KB) does not
        assert t_on.iteration_time_s(1) > t_off.iteration_time_s(1)
        assert t_on.iteration_time_s(0) == pytest.approx(
            t_off.iteration_time_s(0), rel=1e-9
        )

    def test_loop_overhead_additive(self, bw_spec):
        base = GroundTruthConfig(sample_accesses=20_000, loop_overhead_cycles=0.0)
        heavy = GroundTruthConfig(sample_accesses=20_000, loop_overhead_cycles=4.0)
        t0 = GroundTruthTimer(
            self.make_program(), bw_spec.hierarchy, bw_spec.timing, base
        ).iteration_time_s(0)
        t4 = GroundTruthTimer(
            self.make_program(), bw_spec.hierarchy, bw_spec.timing, heavy
        ).iteration_time_s(0)
        expected = 4.0 / bw_spec.timing.frequency_ghz * 1e-9
        assert t4 - t0 == pytest.approx(expected, rel=1e-6)

    def test_unknown_block(self, bw_spec):
        timer = GroundTruthTimer(
            self.make_program(), bw_spec.hierarchy, bw_spec.timing,
            GroundTruthConfig(sample_accesses=10_000),
        )
        with pytest.raises(KeyError):
            timer.iteration_time_s(9)

    def test_pattern_randomness_ordering(self):
        from repro.memstream.patterns import (
            ConstantPattern,
            GatherScatterPattern,
            StencilPattern,
        )

        rand = _pattern_randomness(RandomPattern(region_bytes=4096))
        gather = _pattern_randomness(
            GatherScatterPattern(region_bytes=4096, locality=0.5)
        )
        stencil = _pattern_randomness(StencilPattern(region_bytes=4096))
        const = _pattern_randomness(ConstantPattern(region_bytes=64))
        assert rand > gather > stencil > const == 0.0

    def test_measure_job_requires_partition(self, bw_spec):
        job = run_job("x", 2, lambda comm: comm.compute(0, 10))
        program = self.make_program()
        with pytest.raises(ValueError, match="partition"):
            measure_job(
                job,
                lambda r: program,
                [[0]],  # rank 1 missing
                bw_spec.hierarchy,
                bw_spec.timing,
                bw_spec.network,
            )

    def test_measure_job_runs(self, bw_spec):
        def fn(comm):
            comm.compute(0, 100)
            comm.barrier()

        job = run_job("m", 4, fn)
        program = self.make_program(exec_count=100)
        res = measure_job(
            job,
            lambda r: program,
            [[0, 1], [2, 3]],
            bw_spec.hierarchy,
            bw_spec.timing,
            bw_spec.network,
            GroundTruthConfig(sample_accesses=10_000),
        )
        assert res.runtime_s > 0
        assert res.n_ranks == 4
