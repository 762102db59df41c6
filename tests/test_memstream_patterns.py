"""Unit + property tests: access patterns and stream generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memstream.generator import interleave_streams
from repro.memstream.patterns import (
    BlockedPattern,
    ConstantPattern,
    GatherScatterPattern,
    PointerChasePattern,
    RandomPattern,
    StencilPattern,
    StridedPattern,
)
from repro.memstream.workingset import (
    footprint_bytes,
    measured_footprint_bytes,
    unique_lines,
)
from repro.util.rng import stream

ALL_PATTERN_FACTORIES = [
    lambda: StridedPattern(region_bytes=4096),
    lambda: StridedPattern(region_bytes=8192, stride_elements=4),
    lambda: BlockedPattern(region_bytes=16384, tile_elements=64, revisits=2),
    lambda: RandomPattern(region_bytes=32768),
    lambda: GatherScatterPattern(region_bytes=16384, locality=0.5),
    lambda: GatherScatterPattern(region_bytes=16384, locality=0.0),
    lambda: GatherScatterPattern(region_bytes=16384, locality=1.0),
    lambda: StencilPattern(region_bytes=8192, offsets=(-9, -1, 0, 1, 9)),
    lambda: PointerChasePattern(region_bytes=32768),
    lambda: ConstantPattern(region_bytes=64),
]


@pytest.fixture
def rng():
    return stream("pattern-tests")


class TestPatternContracts:
    @pytest.mark.parametrize("factory", ALL_PATTERN_FACTORIES)
    def test_addresses_in_region(self, factory, rng):
        p = factory().with_base(1 << 20)
        addrs = p.addresses(0, 5000, rng)
        assert addrs.dtype == np.int64
        assert addrs.min() >= p.base
        assert addrs.max() < p.base + p.region_bytes

    @pytest.mark.parametrize("factory", ALL_PATTERN_FACTORIES)
    def test_chunk_stability(self, factory, rng):
        """Addresses must not depend on how the range is chunked."""
        p = factory()
        whole = p.addresses(0, 4000, rng)
        parts = np.concatenate(
            [p.addresses(i, 500, rng) for i in range(0, 4000, 500)]
        )
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("factory", ALL_PATTERN_FACTORIES)
    def test_determinism_across_instances(self, factory):
        a = factory().addresses(100, 200, stream("same", 1))
        b = factory().addresses(100, 200, stream("same", 1))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("factory", ALL_PATTERN_FACTORIES)
    def test_rng_path_changes_stochastic_patterns(self, factory):
        p = factory()
        a = p.addresses(0, 1000, stream("path", 1))
        b = p.addresses(0, 1000, stream("path", 2))
        if isinstance(
            p, (RandomPattern, GatherScatterPattern, PointerChasePattern)
        ) and not (isinstance(p, GatherScatterPattern) and p.locality == 1.0):
            assert not np.array_equal(a, b)
        elif isinstance(p, (StridedPattern, StencilPattern, ConstantPattern)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("factory", ALL_PATTERN_FACTORIES)
    def test_alignment(self, factory, rng):
        p = factory()
        addrs = p.addresses(0, 1000, rng)
        assert np.all((addrs - p.base) % p.element_size == 0)


class TestStridedPattern:
    def test_unit_stride_sequence(self, rng):
        p = StridedPattern(region_bytes=800, element_size=8)
        addrs = p.addresses(0, 10, rng)
        np.testing.assert_array_equal(addrs, np.arange(10) * 8)

    def test_wraparound(self, rng):
        p = StridedPattern(region_bytes=80, element_size=8)  # 10 elements
        addrs = p.addresses(0, 25, rng)
        np.testing.assert_array_equal(addrs[:10], addrs[10:20])

    def test_stride_spacing(self, rng):
        p = StridedPattern(region_bytes=8000, element_size=8, stride_elements=4)
        addrs = p.addresses(0, 5, rng)
        assert np.all(np.diff(addrs) == 32)

    def test_rejects_bad_region(self):
        with pytest.raises(ValueError):
            StridedPattern(region_bytes=4, element_size=8)


class TestStencilPattern:
    def test_one_application_touches_offsets(self, rng):
        offsets = (-3, -1, 0, 1, 3)
        p = StencilPattern(region_bytes=8000, offsets=offsets)
        addrs = p.addresses(0, 5, rng)
        # first stencil application is centered at 0 (mod region)
        centers = (np.asarray(offsets) % p.n_elements) * 8
        np.testing.assert_array_equal(np.sort(addrs), np.sort(centers))

    def test_rejects_empty_offsets(self):
        with pytest.raises(ValueError):
            StencilPattern(region_bytes=4096, offsets=())


class TestBlockedPattern:
    def test_revisits_repeat_tile(self, rng):
        p = BlockedPattern(region_bytes=4096, tile_elements=8, revisits=2)
        addrs = p.addresses(0, 16, rng)
        np.testing.assert_array_equal(addrs[:8], addrs[8:16])

    def test_tiles_advance(self, rng):
        p = BlockedPattern(region_bytes=4096, tile_elements=8, revisits=1)
        addrs = p.addresses(0, 16, rng)
        assert addrs[8] == 8 * 8  # second tile starts after first


class TestGatherScatter:
    def test_locality_extremes_have_different_line_counts(self, rng):
        n = 20_000
        lines_rand = unique_lines(
            GatherScatterPattern(region_bytes=1 << 20, locality=0.0).addresses(
                0, n, rng
            )
        )
        lines_local = unique_lines(
            GatherScatterPattern(
                region_bytes=1 << 20, locality=1.0, cluster_elements=512
            ).addresses(0, n, rng)
        )
        assert lines_local < lines_rand

    def test_locality_validated(self):
        with pytest.raises(ValueError):
            GatherScatterPattern(region_bytes=4096, locality=1.5)


class TestConstantPattern:
    def test_single_address(self, rng):
        p = ConstantPattern(region_bytes=64, base=4096)
        assert np.all(p.addresses(0, 100, rng) == 4096)

    def test_footprint_is_one_element(self):
        assert ConstantPattern(region_bytes=4096).footprint_bytes() == 8


class TestRandomPattern:
    def test_roughly_uniform(self, rng):
        p = RandomPattern(region_bytes=1 << 16)
        addrs = p.addresses(0, 50_000, rng)
        # split region into 8 octants; counts should be balanced within 10%
        octant = (addrs * 8) // (1 << 16)
        counts = np.bincount(octant, minlength=8)
        assert counts.min() > 0.9 * counts.mean()


class TestInterleave:
    def test_counts_exact(self, rng):
        patterns = [
            StridedPattern(region_bytes=4096),
            RandomPattern(region_bytes=4096, base=8192),
        ]
        counts = [1000, 3000]
        total = 0
        seen = np.zeros(2, dtype=int)
        for idx, addrs in interleave_streams(patterns, counts, rng, chunk=512):
            assert idx.shape == addrs.shape
            total += len(addrs)
            seen += np.bincount(idx, minlength=2)
        assert total == 4000
        np.testing.assert_array_equal(seen, counts)

    def test_attribution_addresses_match_pattern(self, rng):
        """Each instruction's addresses must be its pattern's sequence."""
        patterns = [
            StridedPattern(region_bytes=4096),
            StridedPattern(region_bytes=4096, base=1 << 20, stride_elements=2),
        ]
        counts = [500, 1500]
        per_instr = {0: [], 1: []}
        for idx, addrs in interleave_streams(patterns, counts, rng, chunk=256):
            for i in (0, 1):
                per_instr[i].append(addrs[idx == i])
        for i, p in enumerate(patterns):
            got = np.concatenate(per_instr[i])
            expected = p.addresses(0, counts[i], rng.child("instr", i))
            np.testing.assert_array_equal(got, expected)

    def test_interleaving_mixes_instructions(self, rng):
        """Equal-count streams must alternate, not concatenate."""
        patterns = [
            StridedPattern(region_bytes=4096),
            StridedPattern(region_bytes=4096, base=1 << 20),
        ]
        first_chunk_idx, _ = next(
            iter(interleave_streams(patterns, [512, 512], rng, chunk=64))
        )
        # within the first chunk both instructions appear
        assert set(np.unique(first_chunk_idx)) == {0, 1}

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            list(interleave_streams([StridedPattern(region_bytes=64)], [1, 2], rng))

    def test_empty(self, rng):
        assert list(interleave_streams([], [], rng)) == []


class TestWorkingSet:
    def test_unique_lines(self):
        addrs = np.array([0, 8, 64, 65, 128])
        assert unique_lines(addrs, line_size=64) == 3

    def test_unique_lines_empty(self):
        assert unique_lines(np.array([], dtype=np.int64)) == 0

    def test_footprint_sums_line_rounded(self):
        pats = [
            StridedPattern(region_bytes=100),  # rounds to 128
            StridedPattern(region_bytes=64),
        ]
        assert footprint_bytes(pats, line_size=64) == 128 + 64

    def test_measured_vs_analytic_consistency(self):
        rng = stream("ws")
        p = StridedPattern(region_bytes=64 * 100)
        measured = measured_footprint_bytes([p.addresses(0, 2000, rng)])
        assert measured == p.footprint_bytes()  # full wrap covers region

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=64, max_value=1 << 16),
    )
    @settings(max_examples=25, deadline=None)
    def test_footprint_bounds_measured(self, stride, region):
        rng = stream("ws-prop", stride, region)
        region = (region // 8) * 8 or 8
        p = StridedPattern(region_bytes=region, stride_elements=stride)
        measured = measured_footprint_bytes([p.addresses(0, 3000, rng)])
        assert measured <= footprint_bytes([p])
