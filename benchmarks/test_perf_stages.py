"""Stage coverage and the observability overhead budget.

Runs the small Table I protocol (jacobi, train 4,8 -> target 16) plain
and under span tracing in alternating pairs, checks that the traced
runs cover at least ``MIN_STAGES`` pipeline stages, and records into
``results/BENCH_pipeline.json``:

- ``obs_overhead_pct``: the tracing cost, the median over ``PAIRS``
  pairs of traced/plain CPU seconds, which must stay under the budget
  (spans read the clock and append to a list; they must never become a
  measurable tax).  CPU seconds and a median of per-pair ratios keep
  the hypervisor's wall-clock steal and one slow row out of the gate.

Where the time of a paper-scale run goes, layer by layer, is
perfbench's ``--trace 1`` report, not this toy row's.

Thresholds follow the REPRO_BENCH_SMOKE convention of the other perf
modules: shared CI runners are noisy, so smoke mode relaxes the
overhead ceiling.
"""

import os
import time

import numpy as np

from repro.apps.registry import get_app
from repro.obs import trace as obs_trace
from repro.pipeline.collect import CollectionSettings
from repro.pipeline.experiment import Table1Config, run_table1

from benchmarks.conftest import merge_bench

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: observability overhead ceiling (percent of plain CPU time)
MAX_OVERHEAD_PCT = 15.0 if SMOKE else 5.0

#: the acceptance floor on trace coverage: distinct pipeline stages
MIN_STAGES = 6

#: alternating plain/traced pairs the overhead is the median over; one
#: row's CPU time swings by about +-15% on a shared 2-vCPU VM, and the
#: median of 11 pair ratios keeps that well inside the smoke budget
PAIRS = 11

TRAIN = (4, 8)
TARGET = 16


def _run_table1():
    config = Table1Config(collection=CollectionSettings(workers=0))
    return run_table1(get_app("jacobi"), list(TRAIN), TARGET, config)


def _cpu_s(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def _traced_cpu_s():
    tracer = obs_trace.enable()
    try:
        return _cpu_s(_run_table1), tracer.stages()
    finally:
        obs_trace.disable()


def test_stage_timings_and_tracing_overhead():
    obs_trace.disable()
    _run_table1()  # warm-up: imports, machine-profile memoization

    ratios = []
    for pair in range(PAIRS):
        # alternate which side runs first, so drift favours neither
        if pair % 2:
            traced, stage_names = _traced_cpu_s()
            plain = _cpu_s(_run_table1)
        else:
            plain = _cpu_s(_run_table1)
            traced, stage_names = _traced_cpu_s()
        ratios.append(traced / plain)

    overhead_pct = 100.0 * (float(np.median(ratios)) - 1.0)
    merge_bench("BENCH_pipeline", {"obs_overhead_pct": round(overhead_pct, 2)})

    assert len(stage_names) >= MIN_STAGES, (
        f"traced run covered only {stage_names}, expected >= {MIN_STAGES} "
        "distinct pipeline stages"
    )
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"span tracing cost {overhead_pct:.1f}% CPU time on the smoke "
        f"row (median of {PAIRS} pairs {[round(r, 3) for r in ratios]}; "
        f"budget {MAX_OVERHEAD_PCT}%)"
    )


# ----------------------------------------------------------------------
# cache engines: exact replay vs analytical reuse profiles


def _random_workload():
    """A Table III-style L1 what-if sweep over random-stream blocks.

    Random streams are the reuse engine's fast path (no congruence
    passes), and the regime the paper-scale sweeps live in.  The target
    hierarchies vary the L1 (and one L2) around a fixed outer level, so
    every geometry samples the identical streams: the analytical sweep
    profiles each block *once* and re-evaluates per geometry, while the
    exact engine replays the full streams per geometry.
    """
    from repro.cache.geometry import CacheGeometry
    from repro.cache.hierarchy import CacheHierarchy
    from repro.instrument.program import (
        BasicBlockSpec,
        MemInstructionSpec,
        Program,
    )
    from repro.memstream.patterns import RandomPattern
    from repro.trace.records import SourceLocation

    region = (2 if SMOKE else 8) * 1024 * 1024
    execs = 200_000 if SMOKE else 600_000
    program = Program(name="bench-random")
    for bid in range(3):
        program.add_block(
            BasicBlockSpec(
                block_id=bid,
                location=SourceLocation(f"blk{bid}", file="bench.c", line=bid),
                mem_instructions=(
                    MemInstructionSpec(
                        "load", RandomPattern(region_bytes=region), 2
                    ),
                    MemInstructionSpec(
                        "store", RandomPattern(region_bytes=region // 2), 1
                    ),
                ),
                exec_count=execs,
            )
        )
    big = 1 << 21  # shared largest level: identical sampled streams
    l1_variants = [
        (size * 1024, assoc)
        for size in (8, 16, 32, 64, 128)
        for assoc in (2, 8)
    ]
    hierarchies = [
        CacheHierarchy(
            [
                CacheGeometry(size_bytes=size, associativity=assoc, name="L1"),
                CacheGeometry(size_bytes=big, associativity=16, name="L2"),
            ],
            name=f"l1-{size // 1024}k-{assoc}w",
        )
        for size, assoc in l1_variants
    ]
    hierarchies.append(
        CacheHierarchy(
            [
                CacheGeometry(size_bytes=16 * 1024, associativity=4, name="L1"),
                CacheGeometry(size_bytes=256 * 1024, associativity=8, name="L2"),
                CacheGeometry(size_bytes=big, associativity=16, name="L3"),
            ],
            name="three-level",
        )
    )
    if SMOKE:
        hierarchies = hierarchies[::3]
    return program.layout(), hierarchies


def test_collect_exact_vs_reuse():
    from repro.cache.reuse import configure_profile_cache
    from repro.instrument.collector import CollectorConfig, collect_trace

    program, hierarchies = _random_workload()

    def sweep(engine):
        traces = []
        t0 = time.perf_counter()
        for hierarchy in hierarchies:
            traces.append(
                collect_trace(
                    program,
                    hierarchy,
                    app="bench-random",
                    rank=0,
                    n_ranks=4,
                    config=CollectorConfig(engine=engine),
                )
            )
        return time.perf_counter() - t0, traces

    configure_profile_cache(None)  # fresh in-memory profile store
    t_exact, exact_traces = sweep("exact")
    t_reuse, reuse_traces = sweep("reuse")

    max_err = 0.0
    for te, tr in zip(exact_traces, reuse_traces):
        schema = te.schema
        for bid in sorted(te.blocks):
            for ie, ia in zip(
                te.blocks[bid].instructions, tr.blocks[bid].instructions
            ):
                he = np.asarray(ie.features[schema.hit_rate_slice])
                ha = np.asarray(ia.features[schema.hit_rate_slice])
                max_err = max(max_err, float(np.abs(ha - he).max()))

    speedup = t_exact / t_reuse
    merge_bench(
        "BENCH_pipeline",
        {
            "collect_exact_vs_reuse": {
                "smoke": SMOKE,
                "hierarchies": len(hierarchies),
                "exact_s": round(t_exact, 3),
                "reuse_s": round(t_reuse, 3),
                "speedup": round(speedup, 1),
                "max_abs_hit_rate_err": round(max_err, 5),
            }
        },
    )
    assert max_err <= 0.02, (
        f"reuse engine off by {max_err:.4f} from exact on the "
        "random-stream workload (budget 0.02 per instruction and level)"
    )
    # direction only: the reuse engine must still beat exact replay on
    # its own best case (one shared profile across 11 geometries)
    assert speedup > 1.0, (
        f"analytical sweep {speedup:.2f}x the speed of exact replay: "
        "slower than the native replay kernel on its own best case"
    )


# ----------------------------------------------------------------------
# pipeline DAG: incremental recomputation vs cold full sweep


#: content-addressed reuse must make the warm no-op run at least this
#: much faster than the cold sweep; smoke mode only checks direction
MIN_DAG_SPEEDUP = 2.0 if SMOKE else 5.0


def test_dag_incremental_speedup(tmp_path):
    """Cold full sweep vs warm no-op vs one-dirty-leaf re-run.

    The tentpole's payoff, measured: a second ``dag run`` over an
    unchanged spec revalidates 15 committed artifacts instead of
    recomputing them, and dirtying one leaf (deleting the what-if
    report) recomputes exactly that leaf.  Results land in
    ``BENCH_pipeline.json`` under ``dag_incremental_speedup``.
    """
    from repro.exec.resilience import ResilienceConfig
    from repro.pipeline.dag import SweepSpec, run_dag

    spec = SweepSpec(
        app="jacobi", train_counts=TRAIN, targets=(16, 32),
        accesses_per_probe=2000, sample_accesses=20_000,
        max_sample_accesses=200_000, code_version="bench",
    )
    root = tmp_path / "dagroot"
    resilience = ResilienceConfig(
        max_retries=0, backoff_base_s=0.001, backoff_max_s=0.01
    )

    t0 = time.perf_counter()
    cold = run_dag(spec, root, resilience=resilience)
    t_cold = time.perf_counter() - t0
    assert cold.ok and cold.stats.executed == len(cold.statuses)

    t0 = time.perf_counter()
    warm = run_dag(spec, root, resilience=resilience)
    t_warm = time.perf_counter() - t0
    assert warm.stats.executed == 0
    assert warm.digests == cold.digests

    os.remove(cold.artifacts["report:whatif"])
    t0 = time.perf_counter()
    dirty = run_dag(spec, root, resilience=resilience)
    t_dirty = time.perf_counter() - t0
    assert dirty.stats.executed == 1
    assert dirty.digests == cold.digests

    warm_speedup = t_cold / t_warm
    leaf_speedup = t_cold / t_dirty
    merge_bench(
        "BENCH_pipeline",
        {
            "dag_incremental_speedup": {
                "smoke": SMOKE,
                "nodes": len(cold.statuses),
                "cold_s": round(t_cold, 3),
                "warm_noop_s": round(t_warm, 4),
                "one_dirty_leaf_s": round(t_dirty, 4),
                "warm_speedup": round(warm_speedup, 1),
                "one_dirty_leaf_speedup": round(leaf_speedup, 1),
            }
        },
    )
    assert warm_speedup >= MIN_DAG_SPEEDUP, (
        f"warm no-op run only {warm_speedup:.1f}x faster than the cold "
        f"sweep (floor {MIN_DAG_SPEEDUP}x)"
    )
    assert leaf_speedup >= MIN_DAG_SPEEDUP, (
        f"one-dirty-leaf run only {leaf_speedup:.1f}x faster than the "
        f"cold sweep (floor {MIN_DAG_SPEEDUP}x)"
    )
