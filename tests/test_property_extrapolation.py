"""Property-based tests: invariants of fitting and extrapolation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.canonical import EXTENDED_FORMS, PAPER_FORMS, fit_all, fit_best
from repro.core.extrapolate import (
    extrapolate_trace,
    extrapolate_trace_many,
    reference_matrices,
)
from repro.core.fitting import fit_feature_series
from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation
from repro.trace.tracefile import TraceFile

SCHEMA = FeatureSchema(["L1", "L2"])

core_counts = st.lists(
    st.integers(min_value=2, max_value=20),
    min_size=3,
    max_size=5,
    unique=True,
).map(lambda ks: sorted(2**k for k in set(ks)))


positive_series = st.lists(
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False),
    min_size=3,
    max_size=3,
)


class TestFitProperties:
    @given(core_counts, st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_constant_data_predicts_constant(self, counts, value):
        assume(len(counts) >= 3)
        x = np.array(counts, dtype=np.float64)
        best = fit_best(x, np.full(len(x), value))
        assert best.form.name == "constant"
        assert best.predict(np.array([10 * x[-1]]))[0] == pytest.approx(
            value, abs=1e-9 + 1e-9 * abs(value)
        )

    @given(positive_series, st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_equivariance(self, ys, k):
        """fit(k*y) predicts k*fit(y) — the ratio-preservation lemma."""
        x = np.array([1024.0, 2048.0, 4096.0])
        y = np.array(ys)
        a = fit_best(x, y)
        b = fit_best(x, k * y)
        assert a.form.name == b.form.name
        pa = a.predict(np.array([8192.0]))[0]
        pb = b.predict(np.array([8192.0]))[0]
        if np.isfinite(pa) and abs(pa) > 1e-12:
            assert pb / pa == pytest.approx(k, rel=1e-6)

    @given(positive_series)
    @settings(max_examples=60, deadline=None)
    def test_fit_all_ordering_invariant(self, ys):
        """First result never has higher SSE than any other (mod ties)."""
        x = np.array([8.0, 64.0, 512.0])
        results = fit_all(x, np.array(ys), EXTENDED_FORMS)
        best_sse = results[0].sse
        scale = float(np.asarray(ys) @ np.asarray(ys))
        for other in results[1:]:
            assert best_sse <= other.sse * (1 + 1e-6) + scale * 1e-10

    @given(positive_series)
    @settings(max_examples=40, deadline=None)
    def test_training_points_reproduced_within_tolerance(self, ys):
        """The best fit is at least as good as the constant fit."""
        x = np.array([16.0, 128.0, 1024.0])
        y = np.array(ys)
        best = fit_best(x, y)
        const_sse = float(((y - y.mean()) ** 2).sum())
        assert best.sse <= const_sse * (1 + 1e-9)


def trace_from_matrix(n_ranks, matrix):
    block = BasicBlockRecord(
        block_id=0,
        location=SourceLocation(function="f"),
        instructions=[
            InstructionRecord(instr_id=k, kind="load", features=np.array(row))
            for k, row in enumerate(matrix)
        ],
    )
    return TraceFile.from_blocks(
        [block], app="prop", rank=0, n_ranks=n_ranks, target="tgt", schema=SCHEMA
    )


@st.composite
def trace_series(draw):
    """Three consistent traces with smooth random feature evolutions."""
    n_instr = draw(st.integers(min_value=1, max_value=3))
    base = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=SCHEMA.n_features,
                max_size=SCHEMA.n_features,
            ),
            min_size=n_instr,
            max_size=n_instr,
        )
    )
    growth = draw(st.floats(min_value=0.5, max_value=2.0))
    counts = (64, 128, 256)
    traces = []
    for i, n in enumerate(counts):
        factor = growth**i
        matrix = [[v * factor for v in row] for row in base]
        # clamp rate columns into [0, 1]
        for row in matrix:
            for j in range(*SCHEMA.hit_rate_slice.indices(SCHEMA.n_features)):
                row[j] = min(max(row[j] % 1.0, 0.0), 1.0)
        traces.append(trace_from_matrix(n, matrix))
    # rates must be monotone within each vector for physical sanity
    return traces


def assert_physical(trace):
    for block in trace.blocks.values():
        for ins in block.instructions:
            vec = ins.features
            assert np.all(np.isfinite(vec))
            rates = SCHEMA.hit_rates(vec)
            assert np.all(rates >= 0.0) and np.all(rates <= 1.0)
            assert np.all(np.diff(rates) >= 0)
            for f in ("exec_count", "mem_ops", "loads", "stores"):
                assert vec[SCHEMA.index(f)] >= 0.0


#: adversarial targets relative to the (64, 128, 256) training counts:
#: below, at a training count, between two, and far beyond
ADVERSARIAL_TARGETS = [32, 128, 192, 4096]


class TestExtrapolationProperties:
    @given(trace_series())
    @settings(max_examples=25, deadline=None)
    def test_output_always_physical(self, traces):
        res = extrapolate_trace(traces, 1024)
        assert_physical(res.trace)

    @pytest.mark.parametrize("path", ["batched", "reference"])
    @given(traces=trace_series())
    @settings(max_examples=15, deadline=None)
    def test_physical_at_adversarial_targets_both_engines(
        self, path, traces
    ):
        """The batch path and the scalar oracle synthesize only physical
        traces, even when asked to 'extrapolate' below, onto, or between
        the training counts — the guard subsystem's postcondition check
        must never fire on clean inputs at any target."""
        sweep = extrapolate_trace_many(traces, ADVERSARIAL_TARGETS)
        assert [r.target_n_ranks for r in sweep.results] == ADVERSARIAL_TARGETS
        synthesized = [r.trace for r in sweep.results]
        if path == "reference":
            oracle = reference_matrices(
                sweep.report, range(len(sweep.report.pair_keys)),
                ADVERSARIAL_TARGETS, forms=PAPER_FORMS, rate_trust_factor=2.0,
            )
            synthesized = [
                t.with_features(m) for t, m in zip(synthesized, oracle)
            ]
        for target, trace in zip(ADVERSARIAL_TARGETS, synthesized):
            assert trace.extrapolated
            assert trace.n_ranks == target
            assert_physical(trace)

    @given(trace_series())
    @settings(max_examples=10, deadline=None)
    def test_guarded_postcondition_holds_on_clean_inputs(self, traces):
        """validate_trace finds nothing to flag in any synthesized trace
        — the executable form of the bit-identity invariant's premise."""
        from repro.guard.validators import validate_trace

        sweep = extrapolate_trace_many(traces, ADVERSARIAL_TARGETS)
        for res in sweep.results:
            assert validate_trace(
                res.trace, boundary="extrapolate->predict"
            ) == []

    @given(trace_series())
    @settings(max_examples=25, deadline=None)
    def test_structure_always_preserved(self, traces):
        res = extrapolate_trace(traces, 2048)
        assert sorted(res.trace.blocks) == sorted(traces[0].blocks)
        for bid, block in res.trace.blocks.items():
            assert block.n_instructions == traces[0].blocks[bid].n_instructions

    @given(trace_series())
    @settings(max_examples=25, deadline=None)
    def test_deterministic(self, traces):
        a = extrapolate_trace(traces, 512)
        b = extrapolate_trace(traces, 512)
        for bid in a.trace.blocks:
            for i1, i2 in zip(
                a.trace.blocks[bid].instructions, b.trace.blocks[bid].instructions
            ):
                np.testing.assert_array_equal(i1.features, i2.features)
