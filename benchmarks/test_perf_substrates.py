"""Throughput microbenchmarks of the hot substrates.

Not a paper table — these guard the engineering properties the pipeline
depends on: the exact cache simulator (addresses/second), the replay
engine (events/second) and the address-stream generator
(addresses/second).  Regressions here directly inflate every
experiment's wall-clock.

A non-smoke cache-simulator run records its best-of-rounds throughput
as ``cache_sim_<pattern>_maccess_per_s`` in ``BENCH_pipeline.json``, a
non-smoke replay run records the SPECFEM3D 6144-rank job's throughput
through the native kernel and through ``ReplayEngine`` (its base) as
``replay_{native,python}_mevents_per_s`` and their ratio
``replay_native_speedup``, and a non-smoke stream run records the
SPECFEM3D 1536-rank slowest task's block streams through the native
kernel and through the numpy patterns as
``stream_{native,numpy}_maccess_per_s`` and ``stream_native_speedup``,
and a non-smoke job-build run records how fast the Table I targets' jobs
are recorded as ``job_build_<app>_<ranks>_rows_per_s``; set
``REPRO_BENCH_SMOKE=1`` to skip the writes.
"""

import os
import time

import numpy as np
import pytest

from repro.cache.configs import blue_waters_p1
from repro.cache.simulator import HierarchySimulator
from repro.machine.network import NetworkParameters
from repro.memstream.patterns import RandomPattern, StridedPattern
from repro.psins.replay import (
    ComputationTimer,
    ReplayEngine,
    UniformTimer,
    replay_job,
)
from repro.simmpi.runtime import run_job
from repro.util.rng import stream
from repro.util.units import MB


@pytest.mark.benchmark(group="perf-cache")
@pytest.mark.parametrize(
    "pattern_name,pattern",
    [
        ("strided", StridedPattern(region_bytes=8 * MB)),
        ("random", RandomPattern(region_bytes=8 * MB)),
    ],
)
def test_cache_simulator_throughput(benchmark, pattern_name, pattern):
    addrs = pattern.addresses(0, 1 << 18, stream("perf", pattern_name))
    sim = HierarchySimulator(blue_waters_p1())

    def run():
        sim.process(addrs)

    benchmark(run)
    assert sim.result().total_accesses > 0
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
    if benchmark.stats is not None and not smoke:
        from benchmarks.conftest import merge_bench

        best = benchmark.stats.stats.min
        merge_bench(
            "BENCH_pipeline",
            {
                "accesses": addrs.size,
                f"cache_sim_{pattern_name}_maccess_per_s": round(
                    addrs.size / best / 1e6, 3
                ),
            },
        )


@pytest.mark.benchmark(group="perf-replay")
def test_replay_engine_throughput(benchmark):
    class NullTimer(ComputationTimer):
        def time_s(self, rank, block_id, iterations):
            return 1e-6

    def fn(comm):
        left = (comm.rank - 1) % comm.size
        right = (comm.rank + 1) % comm.size
        for step in range(5):
            comm.compute(0, 100)
            comm.send(right, 1024, tag=0)
            comm.recv(left, 1024, tag=0)
            comm.allreduce(8)

    job = run_job("perf", 512, fn)
    net = NetworkParameters()

    result = benchmark(lambda: replay_job(job, NullTimer(), net))
    assert result.n_events == 512 * 5 * 4


def _best_cpu_s(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.process_time()
        out = fn()
        best = min(best, time.process_time() - t0)
    return best, out


def test_replay_native_vs_engine_throughput():
    """The paper-scale replay: SPECFEM3D's 6144-rank Table I target job
    under a uniform timer, through the native kernel (its row pricing and
    channel ids included: each round replays a fresh ``Job`` over the
    same rows) and through ``ReplayEngine`` (decoding excluded)."""
    from repro.apps.registry import get_app
    from repro.machine.systems import get_spec
    from repro.simmpi.runtime import Job

    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
    job = get_app("specfem3d").build_job(6144)
    timer = UniformTimer(lambda block: 1e-7 * (block + 1))
    net = get_spec("blue_waters_p1").network
    repeats = 1 if smoke else 3
    fresh = [Job.from_rows(job.app, job.n_ranks, job.rows, job.offsets)
             for _ in range(repeats + 1)]
    replay_job(fresh.pop(), timer, net)  # compile or load the kernel untimed
    native_s, native = _best_cpu_s(lambda: replay_job(fresh.pop(), timer, net), repeats)
    engines = [ReplayEngine(job, timer, net) for _ in range(repeats)]
    python_s, python = _best_cpu_s(lambda: engines.pop().run(), repeats)

    assert native.runtime_s == python.runtime_s
    assert np.array_equal(native.compute_time_s, python.compute_time_s)
    assert np.array_equal(native.comm_time_s, python.comm_time_s)
    native_rate = job.n_events / native_s / 1e6
    python_rate = job.n_events / python_s / 1e6
    print(f"\nreplay of {job.n_events} events: native {native_rate:.2f} "
          f"Mevents/s, ReplayEngine {python_rate:.3f} Mevents/s")
    assert native_rate > python_rate
    if not smoke:
        from benchmarks.conftest import merge_bench

        merge_bench(
            "BENCH_pipeline",
            {
                "replay_native_mevents_per_s": round(native_rate, 3),
                "replay_python_mevents_per_s": round(python_rate, 3),
                "replay_native_speedup": round(native_rate / python_rate, 1),
            },
        )


def test_stream_native_vs_numpy_throughput(monkeypatch):
    """The exact collector's address streams: every block of SPECFEM3D's
    1536-rank slowest task (a Table I training run) over its measured
    sample on the Blue Waters hierarchy, interleaved by the native kernel
    and by the numpy patterns (its oracle)."""
    import hashlib

    from repro.apps.registry import get_app
    from repro.instrument.pebil import InstrumentedProgram
    from repro.memstream import generator
    from repro.memstream.generator import interleave_streams
    from repro.simmpi.profiler import profile_job

    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
    app, n_ranks = get_app("specfem3d"), 1536
    rank = profile_job(
        app.build_job(n_ranks), app.program_factory(n_ranks),
        app.equivalence_classes(n_ranks),
    ).slowest_rank()
    program = InstrumentedProgram(app.rank_program(rank, n_ranks), blue_waters_p1())
    rng = stream("bench", "stream", n_ranks, rank)
    blocks = []
    for block in program.program.blocks:
        iters = program._sampled_iterations(block)
        if iters and block.mem_instructions:
            blocks.append((
                [m.pattern for m in block.mem_instructions],
                [m.per_iteration * iters for m in block.mem_instructions],
                rng.child("block", block.block_id),
            ))

    def drain():
        n = 0
        for patterns, counts, block_rng in blocks:
            for _, addrs in interleave_streams(
                patterns, counts, block_rng, chunk=program.chunk
            ):
                n += len(addrs)
        return n

    def digest():
        h = hashlib.sha256()
        for patterns, counts, block_rng in blocks:
            for instr, addrs in interleave_streams(
                patterns, counts, block_rng, chunk=program.chunk
            ):
                h.update(instr.tobytes() + addrs.tobytes())
        return h.hexdigest()

    repeats = 1 if smoke else 3
    native_digest = digest()  # also compiles or loads the kernel, untimed
    native_s, n_accesses = _best_cpu_s(drain, repeats)
    monkeypatch.setattr(generator, "load", lambda kernel: None)
    numpy_s, _ = _best_cpu_s(drain, repeats)
    assert digest() == native_digest
    native_rate = n_accesses / native_s / 1e6
    numpy_rate = n_accesses / numpy_s / 1e6
    print(f"\n{n_accesses} stream accesses: native {native_rate:.1f} "
          f"Maccess/s, numpy {numpy_rate:.1f} Maccess/s")
    assert native_rate > numpy_rate
    if not smoke:
        from benchmarks.conftest import merge_bench

        merge_bench(
            "BENCH_pipeline",
            {
                "stream_native_maccess_per_s": round(native_rate, 3),
                "stream_numpy_maccess_per_s": round(numpy_rate, 3),
                "stream_native_speedup": round(native_rate / numpy_rate, 1),
            },
        )


def test_job_build_throughput():
    """Recording the Table I targets' jobs (SPECFEM3D 6144, UH3D 8192)
    through ``AppModel.build_job``, each round on a fresh proxy so that
    its decomposition table and density levels are built in the timed
    call too; the rows must match the digests pinned in ``tests``."""
    import hashlib

    from repro.apps.registry import get_app
    from tests.test_apps import JOB_DIGESTS

    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
    repeats = 1 if smoke else 3
    entry = {}
    for name, n_ranks in (("specfem3d", 6144), ("uh3d", 8192)):
        apps = [get_app(name) for _ in range(repeats)]
        seconds, job = _best_cpu_s(lambda: apps.pop().build_job(n_ranks), repeats)
        digests = tuple(
            hashlib.sha256(a.tobytes()).hexdigest() for a in (job.rows, job.offsets)
        )
        assert digests == JOB_DIGESTS[name, n_ranks, "strong"][:2]
        rate = job.n_events / seconds
        print(f"\n{name} {n_ranks}: {job.n_events} rows in {seconds:.3f} s CPU, "
              f"{rate / 1e6:.2f}M rows/s")
        assert rate >= 3e6
        entry[f"job_build_{name}_{n_ranks}_rows_per_s"] = round(rate)
    if not smoke:
        from benchmarks.conftest import merge_bench

        merge_bench("BENCH_pipeline", entry)


# ----------------------------------------------------------------------
# end-to-end collection throughput: cold vs memoized

from repro.apps.jacobi import JacobiParams, JacobiProxy  # noqa: E402
from repro.exec.sigcache import SignatureCache  # noqa: E402
from repro.instrument.collector import CollectorConfig  # noqa: E402
from repro.pipeline.collect import (  # noqa: E402
    CollectionSettings,
    collect_signature,
    collect_signatures,
)

_COLLECT_APP = JacobiProxy(JacobiParams(global_cells=(64, 64, 64), n_steps=2))
_COLLECT_RANKS = 16
_COLLECT_SETTINGS = CollectionSettings(
    collector=CollectorConfig(
        sample_accesses=50_000, max_sample_accesses=500_000
    ),
    workers=0,
)


@pytest.mark.benchmark(group="perf-collect")
def test_collect_signature_cold(benchmark, bw_machine):
    """Full collection every round: profile + trace + cache simulation."""

    def run():
        return collect_signature(
            _COLLECT_APP, _COLLECT_RANKS, bw_machine.hierarchy, _COLLECT_SETTINGS
        )

    signature = benchmark(run)
    assert signature.slowest_trace().n_blocks > 0


@pytest.mark.benchmark(group="perf-collect")
def test_collect_signature_memoized(benchmark, bw_machine, tmp_path):
    """Warm-cache path: every round is a disk hit, no recollection."""
    cache = SignatureCache(tmp_path)
    (warm,) = collect_signatures(
        _COLLECT_APP,
        [_COLLECT_RANKS],
        bw_machine.hierarchy,
        _COLLECT_SETTINGS,
        cache=cache,
    )

    def run():
        (signature,) = collect_signatures(
            _COLLECT_APP,
            [_COLLECT_RANKS],
            bw_machine.hierarchy,
            _COLLECT_SETTINGS,
            cache=cache,
        )
        return signature

    signature = benchmark(run)
    assert cache.stats.hits >= 1
    assert signature.slowest_trace().n_blocks == warm.slowest_trace().n_blocks


def test_record_pipeline_baseline(bw_machine, tmp_path):
    """Measure collection cold/memoized wall-clock and persist it.

    Not a pass/fail benchmark: it writes ``results/BENCH_pipeline.json``
    so future PRs can diff collection cold/memoized wall-clock against
    this PR's numbers (cache-simulator throughput has its own writer,
    :func:`test_cache_simulator_throughput`).
    """
    import time

    entry = {"schema": 1}

    cache = SignatureCache(tmp_path / "sigcache")
    t0 = time.perf_counter()
    collect_signatures(
        _COLLECT_APP,
        [_COLLECT_RANKS],
        bw_machine.hierarchy,
        _COLLECT_SETTINGS,
        cache=cache,
    )
    entry["collect_cold_s"] = round(time.perf_counter() - t0, 4)
    t0 = time.perf_counter()
    collect_signatures(
        _COLLECT_APP,
        [_COLLECT_RANKS],
        bw_machine.hierarchy,
        _COLLECT_SETTINGS,
        cache=cache,
    )
    entry["collect_memoized_s"] = round(time.perf_counter() - t0, 4)
    entry["memoization_speedup"] = round(
        entry["collect_cold_s"] / max(entry["collect_memoized_s"], 1e-9), 1
    )

    from benchmarks.conftest import merge_bench

    merge_bench("BENCH_pipeline", entry)

