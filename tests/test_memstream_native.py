"""The address-stream kernel (``repro.memstream.native``) against its
numpy oracle.

Two levels: the kernel fills one part exactly as ``pattern.addresses``
does, for every pattern kind and the edge cases of numpy's integer
arithmetic (floor-mod on ``int64``, ``uint64`` wrap-around), and
``interleave_streams`` yields the same chunks, fresh and with the same
dtypes, whether the kernel or the numpy body fills them.  The kernel's
build lifecycle is covered with the other kernels' in
``tests/test_cache_native.py``.
"""

from __future__ import annotations

import logging
import shutil

import numpy as np
import pytest

from repro.machine.multimaps import run_multimaps
from repro.machine.systems import get_spec
from repro.memstream import generator, native
from repro.memstream.generator import interleave_streams, pattern_addresses
from repro.memstream.patterns import (
    BlockedPattern,
    ConstantPattern,
    GatherScatterPattern,
    PointerChasePattern,
    RandomPattern,
    StencilPattern,
    StridedPattern,
    _path_salt,
)
from repro.util import native as loader
from repro.util.native import load
from repro.util.rng import stream
from repro.util.units import KB

COMPILER = shutil.which("cc") or shutil.which("gcc")
needs_compiler = pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")

#: one pattern of each kind, then the edge cases of each kind's arithmetic
PATTERNS = {
    "constant": ConstantPattern(region_bytes=64, base=4096),
    "strided": StridedPattern(region_bytes=8 * KB, stride_elements=3, base=64),
    "strided-stride-n": StridedPattern(region_bytes=800, stride_elements=100),
    "strided-stride-gt-n": StridedPattern(region_bytes=800, stride_elements=257),
    "strided-4-byte": StridedPattern(region_bytes=1000, element_size=4,
                                     stride_elements=7),
    "blocked": BlockedPattern(region_bytes=16 * KB, tile_elements=64, revisits=3),
    "blocked-tile-gt-n": BlockedPattern(region_bytes=800, tile_elements=512,
                                        revisits=2),
    "random": RandomPattern(region_bytes=24 * KB, base=1 << 30),
    "gather": GatherScatterPattern(region_bytes=16 * KB, locality=0.6,
                                   cluster_elements=37),
    "gather-locality-0": GatherScatterPattern(region_bytes=16 * KB, locality=0.0),
    "gather-locality-1": GatherScatterPattern(region_bytes=16 * KB, locality=1.0),
    "gather-cluster-gt-n": GatherScatterPattern(region_bytes=400, locality=1.0,
                                                cluster_elements=1000),
    "stencil": StencilPattern(region_bytes=8 * KB, offsets=(-33, -1, 0, 1, 33)),
    "stencil-offsets-beyond-n": StencilPattern(
        region_bytes=800, offsets=(-1000, -101, 250, 7)
    ),
    "stencil-int64-extremes": StencilPattern(
        region_bytes=808, offsets=(2**63 - 1, -(2**63), -1)
    ),
    "chase": PointerChasePattern(region_bytes=32 * KB, hop_elements=100),
    "chase-hop-gt-n": PointerChasePattern(region_bytes=800, hop_elements=4096),
}

#: first positions: 0, a chunk's worth in, and far out (the strided
#: product then wraps in int64, as numpy's does)
STARTS = (0, 4099, 2**40 + 3, 2**61 + 5)


@pytest.fixture(scope="module")
def kernel():
    if COMPILER is None:
        pytest.skip("no C compiler on PATH")
    fn = load(native.KERNEL)
    assert fn is not None
    return fn


def _salted_stream(high: bool):
    """A stream whose path salt is at least 2**63 (``high``) or below."""
    return next(
        rng for rng in (stream("salt", k) for k in range(64))
        if (_path_salt(rng) >= 2**63) == high
    )


def _kernel_addresses(fn, pattern, start, count, rng, chunk):
    encoded = native.encode([pattern])
    assert encoded is not None
    salts = np.array([_path_salt(rng)], dtype=np.uint64)
    parts = []
    for first in range(start, start + count, chunk):
        n = min(chunk, start + count - first)
        instr, addr = native.fill(fn, encoded, salts, [(0, first, n)])
        assert instr.dtype == np.int32 and not instr.any()
        parts.append(addr)
    return np.concatenate(parts)


class TestKernelAgainstPatterns:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("high_salt", [False, True])
    def test_part_equals_pattern_addresses(self, kernel, name, start, high_salt):
        pattern, rng = PATTERNS[name], _salted_stream(high_salt)
        want = pattern.addresses(start, 3000, rng)
        for chunk in (1, 7, 499, 3000):
            got = _kernel_addresses(kernel, pattern, start, 3000, rng, chunk)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want, err_msg=f"chunk {chunk}")

    def test_every_pattern_kind_is_encoded(self):
        kinds = {type(p) for p in PATTERNS.values()}
        assert kinds == set(native.KINDS)
        assert all(native.encode([p]) is not None for p in PATTERNS.values())

    def test_subclass_is_not_taken_for_its_parent(self):
        class Shifted(StridedPattern):
            pass

        assert native.encode([StridedPattern(region_bytes=64)]) is not None
        assert native.encode([Shifted(region_bytes=64)]) is None

    def test_parameter_outside_int64_is_not_encoded(self):
        huge = StridedPattern(region_bytes=64, stride_elements=2**64)
        assert native.encode([huge]) is None

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_one_part_helper(self, kernel, name):
        pattern, rng = PATTERNS[name], _salted_stream(True)
        np.testing.assert_array_equal(
            pattern_addresses(pattern, 123, 2000, rng),
            pattern.addresses(123, 2000, rng),
        )


# ----------------------------------------------------------------------
# interleave_streams: native chunks against numpy chunks


def _numpy_only(monkeypatch):
    monkeypatch.setattr(generator, "load", lambda kernel: None)


def _chunks(patterns, counts, rng, chunk):
    return list(interleave_streams(patterns, counts, rng, chunk=chunk))


def _assert_same_chunks(got, want):
    assert len(got) == len(want)
    for (gi, ga), (wi, wa) in zip(got, want):
        assert gi.dtype == wi.dtype == np.int32
        assert ga.dtype == wa.dtype == np.int64
        np.testing.assert_array_equal(gi, wi)
        np.testing.assert_array_equal(ga, wa)


def _random_block(r: np.random.Generator, n_instr: int):
    names = sorted(PATTERNS)
    patterns = [
        PATTERNS[names[int(r.integers(len(names)))]].with_base(
            int(r.integers(0, 1 << 40))
        )
        for _ in range(n_instr)
    ]
    counts = [
        0 if r.random() < 0.15 else int(r.integers(1, 6000))
        for _ in range(n_instr)
    ]
    return patterns, counts


def _both(monkeypatch, patterns, counts, rng, chunk):
    got = _chunks(patterns, counts, rng, chunk)
    with monkeypatch.context() as m:
        _numpy_only(m)
        want = _chunks(patterns, counts, rng, chunk)
    return got, want


class TestInterleaveAgainstNumpy:
    @pytest.mark.parametrize("seed", range(40))
    def test_randomized_blocks(self, kernel, monkeypatch, seed):
        r = np.random.default_rng(seed)
        patterns, counts = _random_block(r, 1 + seed % 6)
        chunk = int(r.choice([1, 2, 5, 64, 1000, 4096, 65536]))
        if chunk < 16:  # keep the chunk count small
            counts = [min(c, 300) for c in counts]
        got, want = _both(monkeypatch, patterns, counts, stream("blk", seed), chunk)
        _assert_same_chunks(got, want)
        assert sum(len(a) for _, a in got) == sum(counts)

    def test_many_instructions(self, kernel, monkeypatch):
        patterns, counts = _random_block(np.random.default_rng(7), 40)
        got, want = _both(monkeypatch, patterns, counts, stream("wide"), 1000)
        _assert_same_chunks(got, want)
        issued = np.unique(np.concatenate([instr for instr, _ in got]))
        assert issued.tolist() == [k for k, c in enumerate(counts) if c]

    def test_ratio_stall_flush(self, kernel, monkeypatch):
        """Rounding that never advances an instruction flushes the rest
        of every stream as one chunk."""
        patterns, counts = _random_block(np.random.default_rng(3), 4)
        counts = [max(c, 1) for c in counts]
        monkeypatch.setattr(generator, "round", lambda x: 0, raising=False)
        got, want = _both(monkeypatch, patterns, counts, stream("stall"), 64)
        assert len(got) == 1 and len(got[0][1]) == sum(counts)
        _assert_same_chunks(got, want)

    def test_all_zero_counts_yield_nothing(self, kernel):
        assert _chunks([StridedPattern(region_bytes=64)] * 2, [0, 0], stream("z"), 8) == []

    def test_every_yield_is_a_fresh_array(self, kernel):
        patterns = [PATTERNS["blocked"], PATTERNS["strided"], PATTERNS["gather"]]
        chunks = _chunks(patterns, [900, 3000, 300], stream("fresh"), 256)
        arrays = [a for pair in chunks for a in pair]
        assert len(chunks) > 1
        assert all(a.flags.owndata and a.flags.writeable for a in arrays)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_unknown_subclass_runs_numpy(self, kernel):
        class Shifted(StridedPattern):
            def addresses(self, start, count, rng):
                return super().addresses(start, count, rng) + 8

        patterns = [Shifted(region_bytes=4 * KB), PATTERNS["random"]]
        chunks = _chunks(patterns, [500, 250], stream("sub"), 128)
        instr = np.concatenate([i for i, _ in chunks])
        addrs = np.concatenate([a for _, a in chunks])
        shifted = addrs[instr == 0]
        np.testing.assert_array_equal(
            shifted, StridedPattern(region_bytes=4 * KB).addresses(0, 500, None) + 8
        )


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def test_no_kernel_gives_identical_chunks_and_one_warning(monkeypatch):
    patterns, counts = _random_block(np.random.default_rng(11), 3)
    logger = logging.getLogger("repro.util.native")
    handler, level = _Records(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)  # whatever --quiet a test left behind
    loader.cache_clear()
    monkeypatch.setattr(loader, "_compiler", lambda: None)
    try:
        fallback = [_chunks(patterns, counts, stream("nk", k), 512) for k in range(3)]
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        monkeypatch.undo()
        loader.cache_clear()
    stream_warnings = [
        r.getMessage() for r in handler.records
        if native.KERNEL.fallback in r.getMessage()
    ]
    assert len(stream_warnings) == 1
    assert "no C compiler" in stream_warnings[0]
    if COMPILER is not None:
        assert load(native.KERNEL) is not None
        for k, want in enumerate(fallback):
            _assert_same_chunks(_chunks(patterns, counts, stream("nk", k), 512), want)


@needs_compiler
def test_multimaps_probe_is_unchanged_without_the_kernel(monkeypatch):
    spec = get_spec("blue_waters_p1")

    def probe():
        return run_multimaps(
            spec.hierarchy, spec.timing, working_sets=(16 * KB, 4096 * KB),
            strides=(1, 4), accesses_per_probe=20_000, chunk=4096,
        )

    native_run = probe()
    monkeypatch.setattr(generator, "load", lambda kernel: None)
    numpy_run = probe()
    np.testing.assert_array_equal(native_run.hit_rates, numpy_run.hit_rates)
    np.testing.assert_array_equal(native_run.bandwidths_gbs, numpy_run.bandwidths_gbs)
