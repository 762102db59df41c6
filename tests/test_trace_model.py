"""Unit tests: feature schema, records, trace files, signatures, diffs."""

import numpy as np
import pytest

from repro.trace.diff import compare_traces
from repro.trace.features import BASE_FIELDS, FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation
from repro.trace.signature import ApplicationSignature
from repro.trace.tracefile import TraceFile


@pytest.fixture
def schema():
    return FeatureSchema(["L1", "L2", "L3"])


def make_instruction(schema, instr_id=0, kind="load", **features):
    return InstructionRecord(
        instr_id=instr_id, kind=kind, features=schema.vector_from_dict(features)
    )


def make_trace(schema, rank=0, n_ranks=8, blocks=2, instrs=2, scale=1.0):
    return TraceFile.from_blocks(
        [
            BasicBlockRecord(
                block_id=b,
                location=SourceLocation(function=f"f{b}", line=b),
                instructions=[
                    make_instruction(
                        schema,
                        instr_id=k,
                        exec_count=100.0 * scale,
                        mem_ops=700.0 * scale,
                        loads=700.0 * scale,
                        ref_bytes=8.0,
                        working_set_bytes=4096.0,
                        hit_rate_L1=0.9,
                        hit_rate_L2=0.95,
                        hit_rate_L3=1.0,
                    )
                    for k in range(instrs)
                ],
            )
            for b in range(blocks)
        ],
        app="test", rank=rank, n_ranks=n_ranks, target="tgt", schema=schema,
    )


def set_feature(trace, block_id, k, schema, name, value):
    trace.features[trace.row(block_id, k), schema.index(name)] = value


class TestFeatureSchema:
    def test_fields_layout(self, schema):
        assert schema.fields[: len(BASE_FIELDS)] == BASE_FIELDS
        assert schema.fields[-3:] == (
            "hit_rate_L1",
            "hit_rate_L2",
            "hit_rate_L3",
        )
        assert schema.n_features == len(BASE_FIELDS) + 3

    def test_index_and_unknown(self, schema):
        assert schema.index("mem_ops") == BASE_FIELDS.index("mem_ops")
        with pytest.raises(KeyError):
            schema.index("nope")

    def test_hit_rate_slice(self, schema):
        vec = schema.empty_vector()
        vec[schema.hit_rate_slice] = [0.1, 0.2, 0.3]
        np.testing.assert_allclose(schema.hit_rates(vec), [0.1, 0.2, 0.3])

    def test_bounds(self, schema):
        assert schema.bounds("hit_rate_L1") == (0.0, 1.0)
        lo, hi = schema.bounds("mem_ops")
        assert lo == 0.0 and hi == np.inf

    def test_vector_dict_round_trip(self, schema):
        vec = schema.vector_from_dict({"mem_ops": 5.0, "hit_rate_L2": 0.5})
        d = schema.dict_from_vector(vec)
        assert d["mem_ops"] == 5.0
        assert d["hit_rate_L2"] == 0.5
        assert d["fp_add"] == 0.0

    def test_dict_from_wrong_width(self, schema):
        with pytest.raises(ValueError):
            schema.dict_from_vector(np.zeros(3))

    def test_needs_a_level(self):
        with pytest.raises(ValueError):
            FeatureSchema([])

    def test_count_and_rate_classification(self, schema):
        assert schema.is_count_field("mem_ops")
        assert not schema.is_count_field("ilp")
        assert schema.is_rate_field("hit_rate_L3")
        assert not schema.is_rate_field("ref_bytes")


class TestRecords:
    def test_block_aggregate_counts_sum(self, schema):
        trace = make_trace(schema, instrs=3)
        agg = trace.blocks[0].aggregate(schema)
        assert agg["mem_ops"] == 3 * 700.0
        assert agg["hit_rate_L1"] == pytest.approx(0.9)

    def test_block_totals(self, schema):
        trace = make_trace(schema)
        assert trace.blocks[0].memory_ops(schema) == 1400.0
        assert trace.blocks[0].fp_ops(schema) == 0.0

    def test_empty_block_aggregate(self, schema):
        block = BasicBlockRecord(block_id=0, location=SourceLocation(function="f"))
        agg = block.aggregate(schema)
        assert all(v == 0.0 for v in agg.values())

    def test_source_location_str(self):
        loc = SourceLocation(function="solve", file="a.f90", line=10)
        assert "solve" in str(loc) and "a.f90:10" in str(loc)


class TestTraceFile:
    def test_duplicate_block_rejected(self, schema):
        block = BasicBlockRecord(block_id=0, location=SourceLocation(function="f"))
        with pytest.raises(ValueError, match="duplicate block id 0"):
            TraceFile.from_blocks(
                [block, block], app="t", rank=0, n_ranks=1, target="tgt",
                schema=schema,
            )

    def test_counts(self, schema):
        trace = make_trace(schema, blocks=3, instrs=2)
        assert trace.n_blocks == 3
        assert trace.n_instructions == 6
        assert trace.total_memory_ops() == 6 * 700.0

    def test_npz_round_trip(self, schema, tmp_path):
        trace = make_trace(schema)
        path = tmp_path / "t.npz"
        trace.save_npz(path)
        loaded = TraceFile.load_npz(path)
        assert loaded.app == trace.app
        assert loaded.n_ranks == trace.n_ranks
        assert loaded.schema.fields == trace.schema.fields
        assert loaded.n_instructions == trace.n_instructions
        for b1, b2 in zip(trace.blocks.values(), loaded.blocks.values()):
            assert b1.location == b2.location
            for i1, i2 in zip(b1.instructions, b2.instructions):
                assert i1.kind == i2.kind
                np.testing.assert_array_equal(i1.features, i2.features)

    def test_jsonl_round_trip(self, schema, tmp_path):
        trace = make_trace(schema, blocks=2)
        trace.extrapolated = True
        path = tmp_path / "t.jsonl"
        trace.save_jsonl(path)
        loaded = TraceFile.load_jsonl(path)
        assert loaded.extrapolated is True
        assert loaded.n_blocks == 2
        for b1, b2 in zip(trace.blocks.values(), loaded.blocks.values()):
            for i1, i2 in zip(b1.instructions, b2.instructions):
                np.testing.assert_allclose(i1.features, i2.features)

    def test_formats_agree(self, schema, tmp_path):
        trace = make_trace(schema)
        trace.save_npz(tmp_path / "t.npz")
        trace.save_jsonl(tmp_path / "t.jsonl")
        a = TraceFile.load_npz(tmp_path / "t.npz")
        b = TraceFile.load_jsonl(tmp_path / "t.jsonl")
        for b1, b2 in zip(a.blocks.values(), b.blocks.values()):
            for i1, i2 in zip(b1.instructions, b2.instructions):
                np.testing.assert_allclose(i1.features, i2.features)

    def test_empty_trace_round_trip(self, schema, tmp_path):
        trace = TraceFile.from_blocks(
            [], app="e", rank=0, n_ranks=1, target="tgt", schema=schema
        )
        trace.save_npz(tmp_path / "e.npz")
        loaded = TraceFile.load_npz(tmp_path / "e.npz")
        assert loaded.n_blocks == 0


class TestApplicationSignature:
    def test_add_trace_validations(self, schema):
        sig = ApplicationSignature(app="test", n_ranks=8, target="tgt")
        sig.add_trace(make_trace(schema, rank=0))
        with pytest.raises(ValueError):
            sig.add_trace(make_trace(schema, rank=0))  # duplicate rank
        with pytest.raises(ValueError):
            sig.add_trace(make_trace(schema, rank=1, n_ranks=16))
        bad_app = make_trace(schema, rank=2)
        bad_app.app = "other"
        with pytest.raises(ValueError):
            sig.add_trace(bad_app)

    def test_slowest_by_profile(self, schema):
        sig = ApplicationSignature(
            app="test",
            n_ranks=8,
            target="tgt",
            compute_times={0: 1.0, 3: 5.0, 7: 2.0},
        )
        assert sig.slowest_rank() == 3

    def test_slowest_ties_break_low(self, schema):
        sig = ApplicationSignature(
            app="test", n_ranks=8, target="tgt", compute_times={2: 5.0, 1: 5.0}
        )
        assert sig.slowest_rank() == 1

    def test_slowest_fallback_memops(self, schema):
        sig = ApplicationSignature(app="test", n_ranks=8, target="tgt")
        sig.add_trace(make_trace(schema, rank=0, scale=1.0))
        sig.add_trace(make_trace(schema, rank=1, scale=2.0))
        assert sig.slowest_rank() == 1

    def test_slowest_trace_missing(self, schema):
        sig = ApplicationSignature(
            app="test", n_ranks=8, target="tgt", compute_times={5: 9.0}
        )
        with pytest.raises(KeyError):
            sig.slowest_trace()

    def test_dir_round_trip(self, schema, tmp_path):
        sig = ApplicationSignature(
            app="test", n_ranks=8, target="tgt", compute_times={0: 1.5, 1: 2.5}
        )
        sig.add_trace(make_trace(schema, rank=0))
        sig.add_trace(make_trace(schema, rank=1, scale=2.0))
        sig.save_dir(tmp_path / "sig")
        loaded = ApplicationSignature.load_dir(tmp_path / "sig")
        assert loaded.ranks == [0, 1]
        assert loaded.compute_times == {0: 1.5, 1: 2.5}
        assert loaded.slowest_rank() == 1


class TestTraceDiff:
    def test_identical_traces_zero_error(self, schema):
        a, b = make_trace(schema), make_trace(schema)
        diff = compare_traces(a, b)
        assert diff.max_abs_rel_error() == 0.0

    def test_scaled_trace_error(self, schema):
        a = make_trace(schema, scale=1.0)
        b = make_trace(schema, scale=1.1)
        diff = compare_traces(a, b, fields=["mem_ops"])
        assert diff.max_abs_rel_error() == pytest.approx(0.1)
        assert diff.median_abs_rel_error() == pytest.approx(0.1)

    def test_zero_expected_nonzero_actual_is_inf(self, schema):
        a, b = make_trace(schema), make_trace(schema)
        set_feature(b, 0, 0, schema, "fp_add", 5.0)
        diff = compare_traces(a, b, fields=["fp_add"])
        assert diff.max_abs_rel_error() == np.inf

    def test_block_filter(self, schema):
        a = make_trace(schema, blocks=3)
        b = make_trace(schema, blocks=3, scale=2.0)
        diff = compare_traces(a, b, block_ids=[1], fields=["mem_ops"])
        assert all(e.block_id == 1 for e in diff.errors)

    def test_structure_mismatch_rejected(self, schema):
        a = make_trace(schema, blocks=2)
        b = make_trace(schema, blocks=1)
        with pytest.raises(KeyError):
            compare_traces(a, b)

    def test_worst_sorted(self, schema):
        a = make_trace(schema)
        b = make_trace(schema)
        set_feature(b, 0, 0, schema, "mem_ops", 700.0 * 2)
        set_feature(b, 1, 0, schema, "mem_ops", 700.0 * 1.5)
        worst = compare_traces(a, b, fields=["mem_ops"]).worst(2)
        assert worst[0].abs_rel_error >= worst[1].abs_rel_error
