"""Failure-injection tests: the library must fail loudly and precisely."""

import json

import numpy as np
import pytest

from repro.cache.configs import blue_waters_p1
from repro.core.extrapolate import extrapolate_trace
from repro.instrument.builder import ProgramBuilder
from repro.instrument.collector import collect_trace
from repro.instrument.pebil import InstrumentedProgram
from repro.instrument.program import Program
from repro.memstream.patterns import StridedPattern
from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation
from repro.trace.signature import ApplicationSignature
from repro.trace.tracefile import TraceFile

SCHEMA = FeatureSchema(["L1", "L2", "L3"])


def one_load_trace(features, n_ranks=8, app="fail", target="tgt"):
    block = BasicBlockRecord(
        block_id=0,
        location=SourceLocation(function="f"),
        instructions=[InstructionRecord(instr_id=0, kind="load", features=features)],
    )
    return TraceFile.from_blocks(
        [block], app=app, rank=0, n_ranks=n_ranks, target=target, schema=SCHEMA
    )


def minimal_trace(n_ranks=8, app="fail", target="tgt"):
    features = SCHEMA.vector_from_dict(
        {"exec_count": 10.0 * n_ranks, "mem_ops": 10.0 * n_ranks}
    )
    return one_load_trace(features, n_ranks, app, target)


class TestTraceFileCorruption:
    def test_npz_bad_version(self, tmp_path):
        trace = minimal_trace()
        path = tmp_path / "t.npz"
        trace.save_npz(path)
        # rewrite the meta with a bogus version
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = 99
        data["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            TraceFile.load_npz(path)

    def test_jsonl_missing_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"not": "a header"}\n')
        with pytest.raises(ValueError, match="header"):
            TraceFile.load_jsonl(path)

    def test_jsonl_blank_lines_tolerated(self, tmp_path):
        trace = minimal_trace()
        path = tmp_path / "t.jsonl"
        trace.save_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        loaded = TraceFile.load_jsonl(path)
        assert loaded.n_blocks == 1

    def test_signature_dir_missing_sidecar(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ApplicationSignature.load_dir(tmp_path / "nope")


class TestExtrapolationInputErrors:
    def test_empty_trace_list(self):
        with pytest.raises(ValueError):
            extrapolate_trace([], 128)

    def test_nan_features_rejected(self):
        a, b = minimal_trace(8), minimal_trace(16)
        b.features[0, 0] = np.nan
        with pytest.raises(Exception):
            extrapolate_trace([a, b], 64)

    def test_all_zero_trace_extrapolates_to_zero(self):
        traces = [
            one_load_trace(SCHEMA.empty_vector(), n, app="z") for n in (8, 16, 32)
        ]
        res = extrapolate_trace(traces, 128)
        np.testing.assert_array_equal(
            res.trace.blocks[0].instructions[0].features, 0.0
        )


class TestInstrumentationEdgeCases:
    def test_zero_exec_block(self):
        prog = (
            ProgramBuilder("zero")
            .block("idle")
            .load(StridedPattern(region_bytes=4096))
            .executes(0)
            .done()
            .build()
        )
        trace = collect_trace(
            prog, blue_waters_p1(), app="z", rank=0, n_ranks=1
        )
        ins = trace.blocks[0].instructions[0]
        assert ins.feature(trace.schema, "mem_ops") == 0.0
        np.testing.assert_array_equal(trace.schema.hit_rates(ins.features), 0.0)

    def test_fp_only_program(self):
        prog = (
            ProgramBuilder("fp-only")
            .block("math")
            .fp({"fp_fma": 10})
            .executes(100)
            .done()
            .build()
        )
        trace = collect_trace(
            prog, blue_waters_p1(), app="fp", rank=0, n_ranks=1
        )
        ins = trace.blocks[0].instructions[0]
        assert ins.kind == "fp"
        assert ins.feature(trace.schema, "fp_fma") == 1000.0

    def test_empty_program(self):
        prog = Program(name="empty")
        prog.layout()
        trace = collect_trace(
            prog, blue_waters_p1(), app="e", rank=0, n_ranks=1
        )
        assert trace.n_blocks == 0

    def test_single_access_block(self):
        prog = (
            ProgramBuilder("one")
            .block("single")
            .load(StridedPattern(region_bytes=64))
            .executes(1)
            .done()
            .build()
        )
        report = InstrumentedProgram(prog, blue_waters_p1()).run()
        obs = report.observation(0)
        assert obs.accesses.sum() == 1
