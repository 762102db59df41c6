"""Throughput benchmarks of the batched fitting & extrapolation path.

Guards its two headline wins against regression:

- **fit+extrapolate**: the batch path must beat the per-element scalar
  oracle (``reference_matrices`` over every pair) by >= 10x on the
  Table I SPECFEM3D trace series;
- **multi-target sweep**: a 16-target what-if sweep through
  ``predict_many`` must beat 16 independent ``extrapolate_trace`` calls
  by >= 5x;

and, inseparable from the speed claims, the agreement contract: every
synthesized feature value within 1e-9 relative of the oracle with exact
ties on form selection.

Set ``REPRO_BENCH_SMOKE=1`` (the CI default) to run on a synthetic
trace series instead of collecting SPECFEM3D, with thresholds relaxed
for noisy shared runners.  Numbers are merged into
``results/BENCH_pipeline.json`` next to the PR-1 substrate metrics.
"""

import os
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.canonical import PAPER_FORMS, fit_all
from repro.core.extrapolate import (
    extrapolate_trace,
    extrapolate_trace_many,
    fit_traces,
    reference_matrices,
)
from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation
from repro.trace.tracefile import TraceFile

from benchmarks.conftest import (
    SPECFEM_TARGET,
    SPECFEM_TRAIN,
    merge_bench,
    slowest_trace,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: speedup floors; CI smoke runners are noisy and the synthetic series
#: is smaller than the real trace, so smoke mode relaxes them
MIN_FIT_SPEEDUP = 3.0 if SMOKE else 10.0
MIN_SWEEP_SPEEDUP = 1.5 if SMOKE else 5.0

SWEEP_TARGETS = [SPECFEM_TARGET * (i + 1) for i in range(16)]


def _synthetic_training(n_blocks=120):
    """A collection-free training series with varied scaling shapes."""
    schema = FeatureSchema(["L1", "L2", "L3"])
    rng = np.random.default_rng(42)
    shapes = rng.integers(0, 4, size=n_blocks)
    traces = []
    for n_ranks in (96, 384, 1536):
        blocks = []
        for b in range(n_blocks):
            base = 1e7 * (1 + b % 7)
            if shapes[b] == 0:
                count = base / n_ranks
            elif shapes[b] == 1:
                count = base * np.log2(n_ranks)
            elif shapes[b] == 2:
                count = base
            else:
                count = base / np.sqrt(n_ranks)
            ins = InstructionRecord(
                instr_id=0,
                kind="load",
                features=schema.vector_from_dict(
                    {
                        "exec_count": count,
                        "mem_ops": 4 * count,
                        "loads": 3 * count,
                        "stores": count,
                        "ref_bytes": 8.0,
                        "working_set_bytes": 8 * base / n_ranks,
                        "hit_rate_L1": 0.80 + 1e-5 * n_ranks * (b % 3),
                        "hit_rate_L2": min(0.90 + 2e-5 * n_ranks, 1.0),
                        "hit_rate_L3": 1.0,
                    }
                ),
            )
            blocks.append(
                BasicBlockRecord(b, SourceLocation(function=f"f{b}"), [ins])
            )
        traces.append(TraceFile.from_blocks(
            blocks, app="synt", rank=0, n_ranks=n_ranks, target="tgt",
            schema=schema,
        ))
    return traces


@pytest.fixture(scope="module")
def training_traces():
    if SMOKE:
        return _synthetic_training()
    return [
        slowest_trace("specfem3d", p, "blue_waters_p1") for p in SPECFEM_TRAIN
    ]


def _best_of(fn, repeats=3):
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _n_elements(trace):
    return trace.n_instructions * trace.schema.n_features


def test_batched_fit_extrapolate_speedup(training_traces):
    """Speed criterion: batched fit+extrapolate >= 10x the oracle."""
    target = SPECFEM_TARGET
    t_batched, res_b = _best_of(
        lambda: extrapolate_trace(training_traces, target)
    )
    report = res_b.report
    pairs = range(len(report.pair_keys))
    t_reference, (oracle,) = _best_of(
        lambda: reference_matrices(
            report, pairs, [target], forms=PAPER_FORMS, rate_trust_factor=2.0
        )
    )

    # the speed claim is meaningless without the agreement contract
    np.testing.assert_allclose(
        res_b.trace.features, oracle, rtol=1e-9, atol=1e-300
    )
    assert report.form_histogram() == Counter(
        fit_all(report.batch.x, y)[0].form.name for y in report.batch.Y
    )

    n_el = _n_elements(training_traces[0])
    speedup = t_reference / t_batched
    merge_bench(
        "BENCH_pipeline",
        {
            "fitting_smoke": SMOKE,
            "fit_elements": n_el,
            "fit_batched_elements_per_s": round(n_el / t_batched, 1),
            "fit_reference_elements_per_s": round(n_el / t_reference, 1),
            "fit_speedup": round(speedup, 1),
        },
    )
    assert speedup >= MIN_FIT_SPEEDUP, (
        f"batched fit+extrapolate only {speedup:.1f}x faster than the "
        f"scalar oracle (need >= {MIN_FIT_SPEEDUP}x)"
    )


def test_multi_target_sweep_speedup(training_traces):
    """Sweep criterion: 16 targets via predict_many >= 5x 16 single calls."""
    t_sweep, sweep = _best_of(
        lambda: extrapolate_trace_many(training_traces, SWEEP_TARGETS)
    )

    def independent():
        return [
            extrapolate_trace(training_traces, t) for t in SWEEP_TARGETS
        ]

    t_independent, singles = _best_of(independent)

    # the sweep must synthesize the same traces the single calls do
    for single, target in zip(singles, SWEEP_TARGETS):
        multi = sweep.trace_for(target)
        for bid in multi.blocks:
            for a, b in zip(
                multi.blocks[bid].instructions,
                single.trace.blocks[bid].instructions,
            ):
                assert np.array_equal(a.features, b.features)

    speedup = t_independent / t_sweep
    merge_bench(
        "BENCH_pipeline",
        {
            "sweep_targets": len(SWEEP_TARGETS),
            "sweep_targets_per_s": round(len(SWEEP_TARGETS) / t_sweep, 1),
            "sweep_speedup_vs_independent": round(speedup, 1),
        },
    )
    assert speedup >= MIN_SWEEP_SPEEDUP, (
        f"16-target sweep only {speedup:.1f}x faster than independent "
        f"calls (need >= {MIN_SWEEP_SPEEDUP}x)"
    )


def test_predict_many_matrix_throughput(training_traces):
    """The matrix-only sweep path (no TraceFile assembly) in targets/s."""
    report, _template = fit_traces(training_traces)
    t_eval, _ = _best_of(lambda: report.predict_many(SWEEP_TARGETS))
    merge_bench(
        "BENCH_pipeline",
        {
            "predict_many_targets_per_s": round(
                len(SWEEP_TARGETS) / t_eval, 1
            ),
        },
    )
    assert t_eval < 1.0  # 16 whole-trace evaluations stay interactive
