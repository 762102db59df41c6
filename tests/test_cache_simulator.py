"""Unit + property tests: the exact-LRU cache simulator.

The central check is bit-exact agreement with the scalar reference
implementation over every access-pattern class, across chunk boundaries.
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.reference import ReferenceCacheLevel, simulate_reference
from repro.cache.simulator import HierarchySimulator
from repro.memstream.patterns import (
    ConstantPattern,
    GatherScatterPattern,
    RandomPattern,
    StencilPattern,
    StridedPattern,
)
from repro.util.rng import stream
from repro.util.units import KB


def tiny_hierarchy():
    return CacheHierarchy(
        [
            CacheGeometry(1 * KB, line_size=64, associativity=2, name="L1"),
            CacheGeometry(4 * KB, line_size=64, associativity=4, name="L2"),
        ],
        name="tiny",
    )


class TestAgainstReference:
    @pytest.mark.parametrize(
        "pattern",
        [
            StridedPattern(region_bytes=8 * KB),
            StridedPattern(region_bytes=2 * KB),
            StridedPattern(region_bytes=16 * KB, stride_elements=8),
            RandomPattern(region_bytes=32 * KB),
            GatherScatterPattern(region_bytes=16 * KB, locality=0.6),
            StencilPattern(region_bytes=8 * KB, offsets=(-17, -1, 0, 1, 17)),
            ConstantPattern(region_bytes=64),
        ],
        ids=lambda p: type(p).__name__ + str(p.region_bytes),
    )
    @pytest.mark.parametrize("chunk", [97, 1024])
    def test_hit_counts_match_reference(self, pattern, chunk):
        h = tiny_hierarchy()
        addrs = pattern.addresses(0, 6000, stream("ref-test"))
        sim = HierarchySimulator(h)
        for i in range(0, len(addrs), chunk):
            sim.process(addrs[i : i + chunk])
        vec_hits = [lv.hits for lv in sim.result().levels]
        _, ref_hits = simulate_reference(h, addrs)
        assert vec_hits == ref_hits

    @given(
        st.lists(st.integers(min_value=0, max_value=4 * KB - 1), min_size=1, max_size=400),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_streams_match_reference(self, raw_addrs, chunk):
        """Adversarial random address lists, arbitrary chunking."""
        h = tiny_hierarchy()
        addrs = np.asarray(raw_addrs, dtype=np.int64)
        sim = HierarchySimulator(h)
        for i in range(0, len(addrs), chunk):
            sim.process(addrs[i : i + chunk])
        vec_hits = [lv.hits for lv in sim.result().levels]
        _, ref_hits = simulate_reference(h, addrs)
        assert vec_hits == ref_hits


class TestSemantics:
    def test_cold_start_all_misses(self):
        h = tiny_hierarchy()
        sim = HierarchySimulator(h)
        # distinct lines: every access cold-misses everywhere
        addrs = np.arange(16, dtype=np.int64) * 64
        sim.process(addrs)
        res = sim.result()
        assert res.levels[0].hits == 0
        assert res.levels[1].hits == 0
        assert res.total_accesses == 16

    def test_immediate_reuse_hits_l1(self):
        sim = HierarchySimulator(tiny_hierarchy())
        sim.process(np.array([0, 0, 0, 0], dtype=np.int64))
        assert sim.result().levels[0].hits == 3

    def test_l1_eviction_caught_by_l2(self):
        h = tiny_hierarchy()  # L1: 16 lines, 2-way, 8 sets
        sim = HierarchySimulator(h)
        # 3 lines mapping to the same L1 set (stride = 8 sets * 64B)
        lines = np.array([0, 512, 1024], dtype=np.int64) * 8  # 0, 4096, 8192
        seq = np.concatenate([lines, lines])
        sim.process(seq)
        res = sim.result()
        # second round: all L1 misses (2-way set overflows with 3 lines,
        # LRU evicts each before reuse), but L2 (4-way) holds them
        assert res.levels[0].hits == 0
        assert res.levels[1].hits == 3

    def test_lru_order_within_set(self):
        # associativity-2 set; access A, B, A, C: B is LRU at C's miss
        g = CacheGeometry(128, line_size=64, associativity=2)  # 1 set
        h = CacheHierarchy([g], name="one-set")
        sim = HierarchySimulator(h)
        a, b, c = 0, 64, 128
        sim.process(np.array([a, b, a, c, a, b], dtype=np.int64))
        res = sim.result()
        # hits: a(3rd), a(5th); b at 6th was evicted by c -> miss
        assert res.levels[0].hits == 2

    def test_working_set_fits_second_pass_all_hits(self):
        h = tiny_hierarchy()
        p = StridedPattern(region_bytes=512)  # 8 lines << L1
        addrs = p.addresses(0, 128, stream("fits"))
        sim = HierarchySimulator(h)
        sim.process(addrs)
        res = sim.result()
        # 8 cold misses; everything else L1-hits
        assert res.levels[0].hits == 128 - 8

    def test_per_instruction_attribution(self):
        h = tiny_hierarchy()
        sim = HierarchySimulator(h)
        addrs = np.array([0, 4096, 0, 4096, 0, 4096], dtype=np.int64)
        instr = np.array([0, 1, 0, 1, 0, 1], dtype=np.int32)
        sim.process(addrs, instr)
        lv0 = sim.result().levels[0]
        assert lv0.instr_accesses[0] == 3 and lv0.instr_accesses[1] == 3
        # each instruction re-touches its own line (different sets)
        assert lv0.instr_hits[0] == 2 and lv0.instr_hits[1] == 2

    def test_instr_idx_shape_mismatch_rejected(self):
        sim = HierarchySimulator(tiny_hierarchy())
        with pytest.raises(ValueError):
            sim.process(np.zeros(4, dtype=np.int64), np.zeros(3, dtype=np.int32))

    def test_reset_clears_everything(self):
        sim = HierarchySimulator(tiny_hierarchy())
        sim.process(np.zeros(100, dtype=np.int64))
        sim.reset()
        res = sim.result()
        assert res.total_accesses == 0
        assert all(lv.hits == 0 for lv in res.levels)
        sim.process(np.zeros(1, dtype=np.int64))
        assert sim.result().levels[0].hits == 0  # cold again

    def test_clear_counters_keeps_cache_warm(self):
        sim = HierarchySimulator(tiny_hierarchy())
        sim.process(np.zeros(10, dtype=np.int64))
        sim.clear_counters()
        sim.process(np.zeros(1, dtype=np.int64))
        res = sim.result()
        assert res.total_accesses == 1
        assert res.levels[0].hits == 1  # line still resident

    def test_empty_chunk(self):
        sim = HierarchySimulator(tiny_hierarchy())
        sim.process(np.empty(0, dtype=np.int64))
        assert sim.result().total_accesses == 0


class TestResultMetrics:
    def test_cumulative_hit_rates_monotone(self):
        sim = HierarchySimulator(tiny_hierarchy())
        p = RandomPattern(region_bytes=16 * KB)
        sim.process(p.addresses(0, 20_000, stream("cum")))
        rates = sim.result().cumulative_hit_rates()
        assert np.all(np.diff(rates) >= 0)
        assert 0.0 <= rates[0] <= rates[-1] <= 1.0

    def test_cumulative_hit_rates_empty(self):
        rates = HierarchySimulator(tiny_hierarchy()).result().cumulative_hit_rates()
        np.testing.assert_array_equal(rates, [0.0, 0.0])

    def test_instruction_cumulative_hit_rates_shape(self):
        sim = HierarchySimulator(tiny_hierarchy())
        addrs = np.array([0, 0, 64, 64], dtype=np.int64)
        sim.process(addrs, np.array([0, 0, 1, 1], dtype=np.int32))
        mat = sim.result().instruction_cumulative_hit_rates(2)
        assert mat.shape == (2, 2)
        assert np.all(mat >= 0) and np.all(mat <= 1)

    def test_local_hit_rate(self):
        sim = HierarchySimulator(tiny_hierarchy())
        sim.process(np.array([0, 0], dtype=np.int64))
        assert sim.result().levels[0].local_hit_rate == 0.5


class TestReferenceLevel:
    def test_basic_lru(self):
        g = CacheGeometry(128, line_size=64, associativity=2)
        lv = ReferenceCacheLevel(g)
        assert lv.access(0) is False
        assert lv.access(0) is True
        assert lv.access(64) is False
        assert lv.access(128) is False  # evicts line 0 (LRU)
        assert lv.access(0) is False


def _geometry_zoo():
    """Hierarchies covering every indexing and replacement corner."""
    return [
        # standard nested pow2 (bitmask set index)
        tiny_hierarchy(),
        # direct-mapped at both levels
        CacheHierarchy(
            [
                CacheGeometry(1 * KB, line_size=64, associativity=1, name="L1"),
                CacheGeometry(4 * KB, line_size=64, associativity=1, name="L2"),
            ],
            name="direct-mapped",
        ),
        # fully-associative L1 (single set)
        CacheHierarchy(
            [
                CacheGeometry(512, line_size=64, associativity=8, name="L1"),
                CacheGeometry(4 * KB, line_size=64, associativity=8, name="L2"),
            ],
            name="fully-assoc-l1",
        ),
        # non-power-of-two set counts (modulo indexing)
        CacheHierarchy(
            [
                CacheGeometry(3 * KB, line_size=64, associativity=1, name="L1"),
                CacheGeometry(12 * KB, line_size=64, associativity=4, name="L2"),
            ],
            name="non-pow2",
        ),
        # mixed line sizes
        CacheHierarchy(
            [
                CacheGeometry(1 * KB, line_size=64, associativity=2, name="L1"),
                CacheGeometry(4 * KB, line_size=128, associativity=4, name="L2"),
            ],
            name="mixed-lines",
        ),
        # outward-decreasing set count
        CacheHierarchy(
            [
                CacheGeometry(2 * KB, line_size=64, associativity=2, name="L1"),
                CacheGeometry(4 * KB, line_size=64, associativity=32, name="L2"),
            ],
            name="decreasing-sets",
        ),
    ]


def _served_levels(hierarchy, addrs, chunk):
    """Per-access served level via unique per-access instruction ids.

    Tagging access *i* with instruction id *i* turns the per-instruction
    hit counters into a per-access hit matrix, which pins down the full
    hit/miss sequence at every level — a much stronger equivalence check
    than aggregate hit counts.
    """
    n = len(addrs)
    sim = HierarchySimulator(hierarchy)
    for i in range(0, n, chunk):
        sub = addrs[i : i + chunk]
        sim.process(sub, np.arange(i, i + len(sub), dtype=np.int64))
    result = sim.result()
    served = np.full(n, len(result.levels), dtype=np.int32)
    for j in reversed(range(len(result.levels))):
        hits = result.levels[j].instr_hits
        idx = np.flatnonzero(hits > 0)
        served[idx] = j
    return served, [lv.hits for lv in result.levels]


class TestFastPathEquivalence:
    """The replay kernel against the scalar reference, per access.

    Covers the geometry zoo x pattern class on the full miss-stream
    cascade, plus the inputs that cross the native boundary: negative
    addresses (floor semantics), strided views, narrow dtypes and empty
    chunks.
    """

    @pytest.mark.parametrize(
        "hierarchy", _geometry_zoo(), ids=lambda h: h.name
    )
    @pytest.mark.parametrize(
        "pattern",
        [
            StridedPattern(region_bytes=8 * KB),
            StridedPattern(region_bytes=16 * KB, stride_elements=8),
            RandomPattern(region_bytes=32 * KB),
            GatherScatterPattern(region_bytes=16 * KB, locality=0.6),
        ],
        ids=lambda p: type(p).__name__,
    )
    def test_served_level_sequence_matches_reference(self, hierarchy, pattern):
        addrs = pattern.addresses(0, 4000, stream("fastpath", hierarchy.name))
        served, level_hits = _served_levels(hierarchy, addrs, chunk=997)
        ref_served, ref_hits = simulate_reference(hierarchy, addrs)
        np.testing.assert_array_equal(served, ref_served)
        assert level_hits == ref_hits

    @given(
        st.integers(min_value=0, max_value=len(_geometry_zoo()) - 1),
        st.lists(
            st.integers(min_value=-16 * KB, max_value=16 * KB - 1),
            min_size=1,
            max_size=300,
        ),
        st.integers(min_value=1, max_value=97),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_streams_served_levels(self, geo_idx, raw_addrs, chunk):
        hierarchy = _geometry_zoo()[geo_idx]
        addrs = np.asarray(raw_addrs, dtype=np.int64)
        served, level_hits = _served_levels(hierarchy, addrs, chunk)
        ref_served, ref_hits = simulate_reference(hierarchy, addrs)
        np.testing.assert_array_equal(served, ref_served)
        assert level_hits == ref_hits

    @pytest.mark.parametrize("hierarchy", _geometry_zoo(), ids=lambda h: h.name)
    def test_non_contiguous_and_narrow_inputs(self, hierarchy):
        base = RandomPattern(region_bytes=32 * KB).addresses(
            0, 6000, stream("boundary", hierarchy.name)
        )
        strided = base[::3]  # a view with a 24-byte stride
        narrow = (base[:2000] - 8 * KB).astype(np.int32)  # negatives too
        ref_sim = HierarchySimulator(hierarchy)
        sim = HierarchySimulator(hierarchy)
        for chunk, instr in [
            (strided, np.arange(strided.shape[0], dtype=np.int16)[::-1]),
            (narrow, (np.arange(narrow.shape[0]) % 5).astype(np.uint8)),
        ]:
            assert not chunk.flags["C_CONTIGUOUS"] or chunk.dtype != np.int64
            sim.process(chunk, instr)
            ref_sim.process(np.array(chunk, dtype=np.int64), instr.astype(np.int64))
        for got, want in zip(sim.result().levels, ref_sim.result().levels):
            np.testing.assert_array_equal(got.instr_hits, want.instr_hits)
            np.testing.assert_array_equal(got.instr_accesses, want.instr_accesses)
        _, ref_hits = simulate_reference(
            hierarchy, np.concatenate([strided, narrow.astype(np.int64)])
        )
        assert [lv.hits for lv in sim.result().levels] == ref_hits

    def test_empty_chunk_between_chunks(self):
        addrs = StridedPattern(region_bytes=4 * KB).addresses(0, 300, stream("gap"))
        sim = HierarchySimulator(tiny_hierarchy())
        sim.process(addrs[:150], np.zeros(150, dtype=np.int32))
        sim.process(addrs[:0], np.zeros(0, dtype=np.int32))
        sim.process(addrs[:0])
        sim.process(addrs[150:], np.zeros(150, dtype=np.int32))
        _, ref_hits = simulate_reference(tiny_hierarchy(), addrs)
        assert [lv.hits for lv in sim.result().levels] == ref_hits
        assert sim.result().total_accesses == 300

    def test_negative_instruction_ids_rejected(self):
        sim = HierarchySimulator(tiny_hierarchy())
        with pytest.raises(ValueError):
            sim.process(np.zeros(2, dtype=np.int64), np.array([0, -1]))

    @pytest.mark.skipif(
        shutil.which("cc") is None and shutil.which("gcc") is None,
        reason="no C compiler on PATH",
    )
    def test_compiler_on_path_means_native_kernel(self):
        """Without this, a broken build would fall back to the reference
        and every equivalence test above would compare it with itself."""
        assert HierarchySimulator(tiny_hierarchy())._kernel is not None


class TestLevelStats:
    def test_geometric_growth_preserves_counts(self):
        from repro.cache.simulator import LevelStats

        lv = LevelStats("L1")
        rng = np.random.default_rng(7)
        expected_acc = {}
        expected_hit = {}
        top = 0
        # many small records with ever-growing instruction ids: each one
        # forces the per-instruction arrays to extend
        for round_no in range(40):
            top += int(rng.integers(1, 50))
            idx = rng.integers(0, top, size=20).astype(np.int64)
            hits = rng.random(20) < 0.5
            n = int(idx.max()) + 1
            lv.add(np.bincount(idx, minlength=n), np.bincount(idx[hits], minlength=n))
            for i, h in zip(idx.tolist(), hits.tolist()):
                expected_acc[i] = expected_acc.get(i, 0) + 1
                if h:
                    expected_hit[i] = expected_hit.get(i, 0) + 1
        for i, count in expected_acc.items():
            assert lv.instr_accesses[i] == count
        for i, count in expected_hit.items():
            assert lv.instr_hits[i] == count
        assert lv.instr_accesses.sum() == lv.accesses
        assert lv.instr_hits.sum() == lv.hits
        # growth is geometric: backing capacity stays within a constant
        # factor of the live size (the seed's re-concatenation kept it
        # exactly equal, costing O(n^2) over a run)
        assert lv._acc_buf.shape[0] <= 4 * lv.instr_accesses.shape[0] + 4

    def test_per_instruction_rates_match_aggregate(self):
        h = tiny_hierarchy()
        sim = HierarchySimulator(h)
        pattern = GatherScatterPattern(region_bytes=8 * KB, locality=0.5)
        addrs = pattern.addresses(0, 5000, stream("agg-check"))
        n_instr = 7
        instr = (np.arange(5000) % n_instr).astype(np.int64)
        sim.process(addrs, instr)
        result = sim.result()
        # per-instruction counters must partition the aggregate exactly
        for lv in result.levels:
            assert lv.instr_accesses.sum() == lv.accesses
            assert lv.instr_hits.sum() == lv.hits
        # and the access-weighted per-instruction cumulative rates must
        # reproduce the aggregate cumulative curve
        mat = result.instruction_cumulative_hit_rates(n_instr)
        weights = result.levels[0].instr_accesses[:n_instr].astype(float)
        recomposed = (mat * weights[:, None]).sum(axis=0) / weights.sum()
        np.testing.assert_allclose(
            recomposed, result.cumulative_hit_rates(), rtol=1e-12
        )

    def test_unseen_instructions_have_zero_rates(self):
        h = tiny_hierarchy()
        sim = HierarchySimulator(h)
        sim.process(
            np.array([0, 64, 0], dtype=np.int64),
            np.array([2, 2, 2], dtype=np.int64),
        )
        mat = sim.result().instruction_cumulative_hit_rates(4)
        # instructions 0, 1 and 3 never issued an access: all-zero rows,
        # no division-by-zero fallback artifacts
        np.testing.assert_array_equal(mat[0], 0.0)
        np.testing.assert_array_equal(mat[1], 0.0)
        np.testing.assert_array_equal(mat[3], 0.0)
        assert mat[2, -1] > 0


def test_instruction_cumulative_hit_rates_pins_scalar_reference():
    """Regression pin for the vectorized per-instruction rate matrix.

    The loop below is the original scalar derivation (per instruction,
    per level, guard-by-guard); the vectorized padded-matrix version
    must reproduce it bit-for-bit, including short per-level counter
    arrays and instructions that never issued an access.
    """
    h = tiny_hierarchy()
    sim = HierarchySimulator(h)
    pattern = GatherScatterPattern(region_bytes=8 * KB, locality=0.3)
    addrs = pattern.addresses(0, 4096, stream("vec-pin"))
    n_instr = 5
    # leave instruction 3 unseen to exercise the masked divide
    instr = (np.arange(4096) % n_instr).astype(np.int64)
    instr[instr == 3] = 0
    sim.process(addrs, instr)
    result = sim.result()

    n_levels = len(result.levels)
    expected = np.zeros((n_instr, n_levels))
    for i in range(n_instr):
        lv0 = result.levels[0]
        total = int(lv0.instr_accesses[i]) if i < lv0.instr_accesses.shape[0] else 0
        if total == 0:
            continue
        cum = 0.0
        for j, lv in enumerate(result.levels):
            hits = int(lv.instr_hits[i]) if i < lv.instr_hits.shape[0] else 0
            cum += hits
            expected[i, j] = cum / total

    got = result.instruction_cumulative_hit_rates(n_instr)
    np.testing.assert_array_equal(got, expected)
