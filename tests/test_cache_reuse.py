"""The analytical ``reuse`` cache engine vs the exact replay engine.

Three layers of coverage:

- unit tests of the profile math (circular reuse times, congruence-class
  timelines, StatStack moments, the subset-runs fast path, cross-block
  traffic estimation);
- property tests comparing analytical hit rates against an exact
  warm+measure replay across a geometry zoo (direct-mapped, low/high
  associativity, fully associative, 1-set-1-way, non-power-of-two set
  counts) crossed with strided/random/pointer-chase/stencil streams —
  the agreement contract the guard gate enforces in production;
- engine plumbing: dispatch, profile caching and extension, metrics
  counters, the cross-engine spot-check gate (clean pass and forced
  divergence), and end-to-end ``collect_trace`` equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import reuse
from repro.cache.engine import ENGINE_NAMES, ExactEngine, ReuseEngine, get_engine
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.reuse import (
    ProfileCache,
    class_reuse_times,
    congruence_moduli_for,
    cross_block_lines,
    distance_moments,
    expected_distances,
    profile_stream,
    profiles_for,
    reuse_times,
)
from repro.cache.simulator import HierarchySimulator
from repro.instrument.collector import CollectorConfig, collect_trace
from repro.instrument.program import (
    BasicBlockSpec,
    MemInstructionSpec,
    Program,
)
from repro.memstream.generator import interleave_streams
from repro.memstream.patterns import (
    PointerChasePattern,
    RandomPattern,
    StencilPattern,
    StridedPattern,
)
from repro.obs.metrics import REGISTRY
from repro.trace.records import SourceLocation
from repro.util.errors import CollectionError

CHUNK = 1 << 16


# ----------------------------------------------------------------------
# unit tests: profile math


def test_reuse_times_known_stream():
    # stream A B A B C A ; circular wrap for first occurrences
    lines = np.array([0, 1, 0, 1, 2, 0])
    rt, n_lines = reuse_times(lines)
    assert n_lines == 3
    # A@0 wraps to A@5: gap 0; B@1 wraps to B@3: gap 3; A@2 after A@0: 1
    # B@3 after B@1: 1; C@4 wraps to itself: 5; A@5 after A@2: 2
    assert rt.tolist() == [0, 3, 1, 1, 5, 2]


def test_reuse_times_sum_invariant():
    # per line, the gaps plus the accesses themselves tile the circle:
    # sum(rt) = n * n_lines - n
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 13, size=257)
    rt, n_lines = reuse_times(lines)
    assert rt.sum() == lines.shape[0] * n_lines - lines.shape[0]


def test_class_reuse_times_modulus_one_is_global():
    rng = np.random.default_rng(11)
    lines = rng.integers(0, 20, size=301)
    rt, _ = reuse_times(lines)
    np.testing.assert_array_equal(class_reuse_times(lines, 1), rt)


def test_class_reuse_times_counts_only_congruent():
    # lines 0,1,2,3 round-robin; mod 2 each class has its own timeline
    lines = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    rtc = class_reuse_times(lines, 2)
    # between 0@4 and 0@0 the only mod-2-congruent access is 2@2
    assert rtc[4] == 1
    assert rtc[5] == 1  # 3@3 intervenes on class-1's timeline


def test_expected_distances_cyclic_sweep_exact():
    # unit sweep over W lines repeated: every rt = W-1, f(rt) = W-1
    w = 16
    lines = np.tile(np.arange(w), 8)
    rt, _ = reuse_times(lines)
    np.testing.assert_allclose(expected_distances(rt), w - 1.0)


def test_distance_moments_deterministic_variance_zero():
    lines = np.tile(np.arange(8), 10)
    rt, _ = reuse_times(lines)
    dist, var = distance_moments(rt)
    np.testing.assert_allclose(dist, 7.0)
    np.testing.assert_allclose(var, 0.0, atol=1e-12)


def test_subset_runs_matches_direct_argsort():
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 40, size=500)
    runs = reuse._line_runs(lines)
    keep = rng.random(500) > 0.3
    sub = reuse._subset_runs(lines, runs, keep)
    direct = reuse._line_runs(lines[keep])
    # run boundaries and sorted order must agree (stable ties included)
    np.testing.assert_array_equal(sub[0], direct[0])
    np.testing.assert_array_equal(sub[2], direct[2])
    np.testing.assert_array_equal(sub[3], direct[3])


def test_congruence_moduli_for():
    det = [StridedPattern(region_bytes=4096)]
    rnd = [RandomPattern(region_bytes=4096)]
    # all-random streams carry no systematic congruence
    assert congruence_moduli_for(rnd) == ()
    assert congruence_moduli_for(rnd, [512]) == ()
    # no target set counts: the full ladder
    assert congruence_moduli_for(det) == reuse.CONGRUENCE_MODULI
    # pruned to the largest ladder modulus dividing each level
    assert congruence_moduli_for(det, [512, 1024]) == (512, 1024)
    assert congruence_moduli_for(det, [512, 512, 2048]) == (512, 2048)
    # non-power-of-two set count: largest power-of-two divisor
    assert congruence_moduli_for(det, [24]) == (8,)
    # single-set levels need no congruence at all
    assert congruence_moduli_for(det, [1]) == ()


def test_cross_block_lines():
    a = StridedPattern(region_bytes=64 * 100, base=0)
    b = StridedPattern(region_bytes=64 * 30, base=1 << 21)
    c = RandomPattern(region_bytes=64 * 50, base=2 << 21)
    streams = [([a], [100_000]), ([b, c], [10_000, 10_000])]
    extras = cross_block_lines(streams, 64)
    # block 0 sees block 1's two regions; block 1 sees block 0's one
    assert extras[0] == 30 + 50
    assert extras[1] == 100


def test_cross_block_lines_shared_region_excluded():
    shared = StridedPattern(region_bytes=64 * 100, base=0)
    other = StridedPattern(region_bytes=64 * 40, base=1 << 21)
    streams = [([shared], [10_000]), ([shared, other], [10_000, 10_000])]
    extras = cross_block_lines(streams, 64)
    # traffic to a region the block itself touches refreshes, not evicts
    assert extras[0] == 40
    assert extras[1] == 0


def test_cross_block_lines_count_bounded():
    big = RandomPattern(region_bytes=64 * 10_000, base=0)
    tiny = StridedPattern(region_bytes=64, base=1 << 21)
    streams = [([tiny], [10]), ([big], [7])]  # only 7 accesses issued
    extras = cross_block_lines(streams, 64)
    assert extras[0] == 7


# ----------------------------------------------------------------------
# property tests: analytical rates vs exact replay across the zoo

#: geometry zoo: the corners the analytical model must survive
ZOO = [
    CacheGeometry(size_bytes=64, line_size=64, associativity=1, name="one-line"),
    CacheGeometry(size_bytes=4096, line_size=64, associativity=64, name="fa"),
    CacheGeometry(size_bytes=16 * 1024, line_size=64, associativity=1, name="dm"),
    CacheGeometry(size_bytes=32 * 1024, line_size=64, associativity=2, name="2w"),
    # Cray-T3-style non-power-of-two set count (24 sets, 3 ways)
    CacheGeometry(size_bytes=24 * 3 * 64, line_size=64, associativity=3, name="t3"),
    CacheGeometry(size_bytes=1 << 20, line_size=64, associativity=16, name="16w"),
]

STREAMS = {
    "strided_unit": ([StridedPattern(region_bytes=128 * 1024)], [96_000]),
    "strided_small": ([StridedPattern(region_bytes=12 * 1024)], [48_000]),
    "stride4": (
        [StridedPattern(region_bytes=64 * 1024, stride_elements=4)],
        [64_000],
    ),
    "random": ([RandomPattern(region_bytes=256 * 1024)], [96_000]),
    "chase": ([PointerChasePattern(region_bytes=32 * 1024)], [48_000]),
    "stencil": (
        [StencilPattern(region_bytes=96 * 1024, offsets=(-1, 0, 1, -64, 64))],
        [80_000],
    ),
    "mix": (
        [
            StridedPattern(region_bytes=96 * 1024),
            RandomPattern(region_bytes=96 * 1024, base=1 << 21),
        ],
        [48_000, 48_000],
    ),
}


def _materialize(patterns, counts):
    skey = reuse.stream_key(patterns, counts, CHUNK)
    rng = reuse.profiling_rng(skey)
    idx_parts, addr_parts = [], []
    for instr_idx, addrs in interleave_streams(
        patterns, counts, rng, chunk=CHUNK
    ):
        idx_parts.append(instr_idx)
        addr_parts.append(addrs)
    return np.concatenate(idx_parts), np.concatenate(addr_parts)


def _exact_rates(patterns, counts, hierarchy):
    instr_idx, addresses = _materialize(patterns, counts)
    sim = HierarchySimulator(hierarchy)
    sim.process(addresses, instr_idx)  # warm to steady state
    sim.clear_counters()
    sim.process(addresses, instr_idx)
    return sim.result().cumulative_hit_rates()


def _reuse_rates(patterns, counts, hierarchy):
    profiles = profiles_for(
        patterns,
        counts,
        reuse.line_sizes_of(hierarchy),
        chunk=CHUNK,
        cache=ProfileCache(),
        moduli=congruence_moduli_for(
            patterns, [g.n_sets for g in hierarchy.levels]
        ),
    )
    return reuse.aggregate_rates(profiles, hierarchy)


@pytest.mark.parametrize("geometry", ZOO, ids=lambda g: g.name)
@pytest.mark.parametrize("stream", sorted(STREAMS), ids=str)
def test_reuse_matches_exact_across_zoo(geometry, stream):
    patterns, counts = STREAMS[stream]
    hierarchy = CacheHierarchy([geometry], name=f"zoo-{geometry.name}")
    exact = _exact_rates(patterns, counts, hierarchy)
    approx = _reuse_rates(patterns, counts, hierarchy)
    # the production guard gate's agreement contract
    tol = 0.05 + 0.05 * np.abs(exact)
    assert np.all(np.abs(approx - exact) <= tol), (
        f"{stream} on {geometry.name}: exact={exact}, reuse={approx}"
    )


def test_reuse_matches_exact_multi_level():
    patterns, counts = STREAMS["mix"]
    hierarchy = CacheHierarchy(
        [
            CacheGeometry(size_bytes=16 * 1024, associativity=2, name="L1"),
            CacheGeometry(size_bytes=256 * 1024, associativity=8, name="L2"),
        ],
        name="zoo-2level",
    )
    exact = _exact_rates(patterns, counts, hierarchy)
    approx = _reuse_rates(patterns, counts, hierarchy)
    assert np.all(np.abs(approx - exact) <= 0.05 + 0.05 * np.abs(exact))
    # cumulative convention: monotone non-decreasing outward
    assert np.all(np.diff(approx) >= -1e-12)


def test_fully_associative_is_near_exact():
    # FA caches have no mapping assumptions: the model should be tight.
    # One access per line (stride = line size): a 192-line cyclic sweep
    # either fits entirely or thrashes entirely under LRU.
    patterns = [StridedPattern(region_bytes=12 * 1024, stride_elements=8)]
    counts = [48_000]
    for assoc_lines, expect_hit in ((192, 1.0), (64, 0.0)):
        g = CacheGeometry(
            size_bytes=assoc_lines * 64,
            associativity=assoc_lines,
            name="fa",
        )
        hierarchy = CacheHierarchy([g], name="zoo-fa")
        approx = _reuse_rates(patterns, counts, hierarchy)
        assert approx[0] == pytest.approx(expect_hit, abs=0.02)


# ----------------------------------------------------------------------
# profile artifact: caching, extension, metrics


def _small_profile(moduli=(2, 8)):
    patterns = [StridedPattern(region_bytes=8 * 1024)]
    counts = [4_000]
    instr_idx, addresses = _materialize(patterns, counts)
    return profile_stream(instr_idx, addresses, 1, 64, moduli=moduli)


def test_profile_cache_disk_round_trip(tmp_path):
    cache = ProfileCache(tmp_path)
    profile = _small_profile()
    cache.put("k" * 64, profile)
    cache.clear()  # drop the memory tier: force the disk path
    loaded = cache.get("k" * 64)
    assert loaded is not None
    assert loaded.n_lines == profile.n_lines
    np.testing.assert_array_equal(loaded.totals, profile.totals)
    np.testing.assert_array_equal(loaded.counts, profile.counts)
    np.testing.assert_allclose(loaded.distances, profile.distances)
    np.testing.assert_allclose(
        loaded.first_distances, profile.first_distances
    )
    np.testing.assert_array_equal(loaded.first_counts, profile.first_counts)
    assert sorted(loaded.congruence) == [2, 8]
    for m in (2, 8):
        for got, want in zip(loaded.congruence[m], profile.congruence[m]):
            np.testing.assert_allclose(got, want)


def test_profile_cache_corrupt_entry_recomputed(tmp_path):
    cache = ProfileCache(tmp_path)
    cache.put("k" * 64, _small_profile())
    cache.store.path("k" * 64).write_bytes(b"not an npz")
    cache.clear()
    assert cache.get("k" * 64) is None  # absent/corrupt -> recompute


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_profile_cache_truncated_entry_recomputed(tmp_path, fraction):
    # regression: a truncated .npz raised zipfile.BadZipFile out of get()
    cache = ProfileCache(tmp_path)
    cache.put("k" * 64, _small_profile())
    (entry,) = [p for p in tmp_path.rglob("*") if p.is_file()]
    data = entry.read_bytes()
    entry.write_bytes(data[: int(len(data) * fraction)])
    cache.clear()
    assert cache.get("k" * 64) is None


def test_profiles_for_extends_cached_moduli(tmp_path):
    patterns = [StridedPattern(region_bytes=8 * 1024)]
    counts = [4_000]
    cache = ProfileCache(tmp_path)
    kwargs = dict(chunk=CHUNK, cache=cache)
    profiles = profiles_for(patterns, counts, [64], moduli=(8,), **kwargs)
    assert sorted(profiles[64].congruence) == [8]
    before = REGISTRY.counters.get("cachesim.reuse.profile_extensions", 0)
    profiles = profiles_for(patterns, counts, [64], moduli=(8, 64), **kwargs)
    after = REGISTRY.counters.get("cachesim.reuse.profile_extensions", 0)
    # only the missing modulus was measured, onto the cached profile
    assert sorted(profiles[64].congruence) == [8, 64]
    assert after == before + 1


def test_profiles_shared_across_geometries():
    patterns = [RandomPattern(region_bytes=64 * 1024)]
    counts = [30_000]
    cache = ProfileCache()
    before = REGISTRY.counters.get("cachesim.reuse.profiles", 0)
    for geometry in ZOO:
        profiles_for(
            patterns, counts, [64], chunk=CHUNK, cache=cache, moduli=()
        )
    after = REGISTRY.counters.get("cachesim.reuse.profiles", 0)
    # one profile serves the whole geometry zoo
    assert after == before + 1


def test_profile_cache_tier_stats_and_eviction_metrics(tmp_path):
    cache = ProfileCache(tmp_path, mem_entries=2)
    before = REGISTRY.counters.get("cachesim.reuse.evictions", 0)
    profile = _small_profile()
    keys = [c * 64 for c in "abc"]
    for key in keys:
        cache.put(key, profile)
    # three stores through a 2-entry LRU: one eviction, mirrored
    assert cache.stats.stores == 3
    assert cache.stats.evictions == 1
    assert REGISTRY.counters.get("cachesim.reuse.evictions", 0) == before + 1
    # evicted key comes back from the disk tier; warm key from memory
    assert cache.get(keys[0]) is not None
    assert cache.get(keys[2]) is not None
    assert cache.stats.disk_hits == 1
    assert cache.stats.mem_hits == 1
    # a never-stored key is a miss on both tiers
    assert cache.get("z" * 64) is None
    assert cache.stats.misses == 1
    doc = cache.stats.to_dict()
    assert doc == {
        "mem_hits": 1,
        "disk_hits": 1,
        "misses": 1,
        "stores": 3,
        "evictions": cache.stats.evictions,
    }


def test_eval_counter_increments():
    patterns, counts = STREAMS["random"]
    hierarchy = CacheHierarchy(ZOO[:3], name="zoo-3level")
    before = REGISTRY.counters.get("cachesim.reuse.evals", 0)
    _reuse_rates(patterns, counts, hierarchy)
    after = REGISTRY.counters.get("cachesim.reuse.evals", 0)
    assert after == before + 3  # one closed-form eval per level


# ----------------------------------------------------------------------
# engine plumbing and the cross-engine guard gate


def _two_block_program():
    program = Program(name="reuse-test")
    loc = SourceLocation("blk0", file="t.c", line=1)
    program.add_block(
        BasicBlockSpec(
            block_id=0,
            location=loc,
            mem_instructions=(
                MemInstructionSpec(
                    "load", StridedPattern(region_bytes=64 * 1024), 2
                ),
                MemInstructionSpec(
                    "store", StridedPattern(region_bytes=32 * 1024), 1
                ),
            ),
            exec_count=20_000,
        )
    )
    program.add_block(
        BasicBlockSpec(
            block_id=1,
            location=SourceLocation("blk1", file="t.c", line=9),
            mem_instructions=(
                MemInstructionSpec(
                    "load", RandomPattern(region_bytes=128 * 1024), 1
                ),
            ),
            exec_count=30_000,
        )
    )
    return program.layout()


def _small_hierarchy():
    return CacheHierarchy(
        [
            CacheGeometry(size_bytes=8 * 1024, associativity=2, name="L1"),
            CacheGeometry(size_bytes=128 * 1024, associativity=8, name="L2"),
        ],
        name="test-2level",
    )


def test_get_engine_dispatch():
    assert isinstance(get_engine("exact"), ExactEngine)
    assert isinstance(get_engine("reuse"), ReuseEngine)
    with pytest.raises(ValueError, match="unknown cache engine"):
        get_engine("bogus")


def test_collector_config_validates_engine():
    assert CollectorConfig(engine="reuse").engine == "reuse"
    with pytest.raises(ValueError, match="unknown cache engine"):
        CollectorConfig(engine="bogus")
    assert "exact" in ENGINE_NAMES and "reuse" in ENGINE_NAMES


def _collect(engine):
    return collect_trace(
        _two_block_program(),
        _small_hierarchy(),
        app="reuse-test",
        rank=0,
        n_ranks=4,
        config=CollectorConfig(
            sample_accesses=30_000, max_sample_accesses=60_000, engine=engine
        ),
    )


def test_collect_trace_engines_agree():
    exact = _collect("exact")
    approx = _collect("reuse")
    schema = exact.schema
    for bid in sorted(exact.blocks):
        for ie, ia in zip(
            exact.blocks[bid].instructions, approx.blocks[bid].instructions
        ):
            he = np.asarray(ie.features[schema.hit_rate_slice])
            ha = np.asarray(ia.features[schema.hit_rate_slice])
            assert np.all(np.abs(ha - he) <= 0.05 + 0.05 * np.abs(he)), (
                f"block {bid}: exact={he}, reuse={ha}"
            )


def test_spot_check_gate_catches_divergence(monkeypatch):
    # sabotage the analytical model: every access predicted a miss
    monkeypatch.setattr(
        reuse, "hit_probability", lambda d, g, n: np.zeros_like(
            np.asarray(d, dtype=np.float64)
        )
    )
    monkeypatch.setattr(
        reuse,
        "congruent_hit_probability",
        lambda d, v, g, n, m=None: np.zeros_like(
            np.asarray(d, dtype=np.float64)
        ),
    )
    with pytest.raises(CollectionError, match="diverged from exact"):
        _collect("reuse")


def test_reuse_engine_guard_off_skips_spot_check(monkeypatch):
    from repro.guard.config import GuardConfig
    from repro.instrument.pebil import InstrumentedProgram

    called = []
    monkeypatch.setattr(
        "repro.guard.gates.cache_engine_spot_check",
        lambda *a, **k: called.append(1),
    )
    engine = ReuseEngine(guard=GuardConfig(policy="off"))
    instrumented = InstrumentedProgram(
        _two_block_program(),
        _small_hierarchy(),
        sample_accesses=30_000,
        max_sample_accesses=60_000,
        chunk=CHUNK,
    )
    report = engine.run(instrumented)
    assert not called
    assert sorted(report.observations) == [0, 1]
