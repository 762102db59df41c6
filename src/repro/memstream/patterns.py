"""Access-pattern primitives.

Each pattern models one *static memory instruction*'s dynamic address
sequence: where in its data region the instruction's successive dynamic
instances fall.  Patterns are deliberately simple and composable — the
realism of an application proxy comes from mixing patterns with
decomposition-derived working-set sizes, not from any single pattern.

All patterns produce **byte addresses** (``int64``) relative to their own
``base`` address.  Regions of distinct patterns are laid out
non-overlapping by the program builder (:mod:`repro.instrument.builder`),
mimicking distinct arrays in a real address space.

Address sequences are *deterministic functions of (pattern, rng path,
position)*: asking for addresses ``[k, k+n)`` twice yields identical
output, which the chunked generator relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import RngStream, derive_seed
from repro.util.validation import check_in_range, check_positive

#: Cache-line-sized default element; most HPC codes move 8-byte doubles.
DEFAULT_ELEMENT_SIZE = 8


@dataclass(frozen=True)
class AccessPattern:
    """Base class for access patterns.

    Parameters
    ----------
    region_bytes:
        Size of the data region (working set) this instruction sweeps.
    element_size:
        Bytes per access (4 for float32/int32, 8 for float64...).
    base:
        Base byte address of the region; assigned by the program layout
        pass so that distinct arrays never alias.
    """

    region_bytes: int
    element_size: int = DEFAULT_ELEMENT_SIZE
    base: int = 0

    def __post_init__(self):
        check_positive("region_bytes", self.region_bytes)
        check_positive("element_size", self.element_size)
        check_in_range("base", self.base, low=0)
        if self.region_bytes < self.element_size:
            raise ValueError(
                f"region_bytes={self.region_bytes} smaller than "
                f"element_size={self.element_size}"
            )

    @property
    def n_elements(self) -> int:
        """Number of addressable elements in the region."""
        return self.region_bytes // self.element_size

    def with_base(self, base: int) -> "AccessPattern":
        """Return a copy relocated to ``base`` (used by region layout)."""
        import dataclasses

        return dataclasses.replace(self, base=base)

    # -- interface -----------------------------------------------------

    def addresses(self, start: int, count: int, rng: RngStream) -> np.ndarray:
        """Return byte addresses for dynamic instances ``[start, start+count)``.

        Must be deterministic in ``(self, rng.path, start, count)`` and
        consistent across different chunkings of the same range.
        """
        raise NotImplementedError

    # -- analysis helpers used by proxies and tests --------------------

    def footprint_bytes(self) -> int:
        """Upper bound on the bytes this pattern can touch."""
        return self.region_bytes


@dataclass(frozen=True)
class ConstantPattern(AccessPattern):
    """All instances hit the same element (e.g. a scalar accumulator)."""

    def addresses(self, start: int, count: int, rng: RngStream) -> np.ndarray:
        return np.full(count, self.base, dtype=np.int64)

    def footprint_bytes(self) -> int:
        return self.element_size


@dataclass(frozen=True)
class StridedPattern(AccessPattern):
    """Fixed-stride sweep over the region, wrapping around.

    ``stride_elements=1`` is the classic unit-stride streaming access;
    larger strides model column-major traversals of row-major data and
    struct-of-array walks.  Wrap-around models the outer loop repeating
    the sweep every pass.
    """

    stride_elements: int = 1

    def __post_init__(self):
        super().__post_init__()
        check_positive("stride_elements", self.stride_elements)

    def addresses(self, start: int, count: int, rng: RngStream) -> np.ndarray:
        idx = (np.arange(start, start + count, dtype=np.int64) * self.stride_elements) % self.n_elements
        return self.base + idx * self.element_size


@dataclass(frozen=True)
class BlockedPattern(AccessPattern):
    """Tiled traversal: unit-stride within a tile, tiles visited in order.

    Models cache-blocked kernels: the instruction streams through
    ``tile_elements`` contiguous elements, then jumps to the next tile.
    When ``revisits > 1`` each tile is swept that many times before
    moving on, concentrating reuse (higher hit rates in the level that
    holds a tile).
    """

    tile_elements: int = 512
    revisits: int = 1

    def __post_init__(self):
        super().__post_init__()
        check_positive("tile_elements", self.tile_elements)
        check_positive("revisits", self.revisits)

    @property
    def tiling(self) -> tuple:
        """``(tile, tile * revisits, tile count)`` in elements."""
        tile = min(self.tile_elements, self.n_elements)
        return tile, tile * self.revisits, max(1, self.n_elements // tile)

    def addresses(self, start: int, count: int, rng: RngStream) -> np.ndarray:
        tile, per_tile, n_tiles = self.tiling
        pos = np.arange(start, start + count, dtype=np.int64)
        tile_idx = (pos // per_tile) % n_tiles
        within = (pos % per_tile) % tile
        idx = tile_idx * tile + within
        return self.base + idx * self.element_size


@dataclass(frozen=True)
class RandomPattern(AccessPattern):
    """Uniformly random accesses over the region.

    The sequence is generated from a counter-based construction so that
    the address of dynamic instance *k* depends only on *k* and the rng
    path — chunk boundaries do not change the stream.
    """

    def addresses(self, start: int, count: int, rng: RngStream) -> np.ndarray:
        pos = np.arange(start, start + count, dtype=np.uint64)
        mixed = _splitmix64(pos + np.uint64(_path_salt(rng)))
        idx = (mixed % np.uint64(self.n_elements)).astype(np.int64)
        return self.base + idx * self.element_size


@dataclass(frozen=True)
class GatherScatterPattern(AccessPattern):
    """Indirect access through an index array with tunable locality.

    Models PIC gather/scatter: particles sorted by cell give clustered
    accesses, unsorted particles give near-random accesses.
    ``locality`` in ``[0, 1]``: 0 is fully random over the region, 1 is
    fully sequential.  Intermediate values pick a random cluster start
    and stream ``cluster_elements`` contiguous elements from it.
    """

    locality: float = 0.5
    cluster_elements: int = 64

    def __post_init__(self):
        super().__post_init__()
        check_in_range("locality", self.locality, 0.0, 1.0)
        check_positive("cluster_elements", self.cluster_elements)

    @property
    def cluster(self) -> int:
        """Elements streamed from each random cluster start."""
        if self.locality <= 0.0:
            return 1
        return max(1, int(round(self.cluster_elements * self.locality)) or 1)

    def addresses(self, start: int, count: int, rng: RngStream) -> np.ndarray:
        n = np.uint64(self.n_elements)
        pos = np.arange(start, start + count, dtype=np.uint64)
        salt = np.uint64(_path_salt(rng))
        cluster_u = np.uint64(self.cluster)
        cluster_id = pos // cluster_u
        offset = pos % cluster_u
        cluster_base = _splitmix64(cluster_id + salt) % n
        idx = ((cluster_base + offset) % n).astype(np.int64)
        return self.base + idx * self.element_size


@dataclass(frozen=True)
class StencilPattern(AccessPattern):
    """Structured-grid stencil sweep.

    Sweeps the region in unit stride while also touching neighbor
    offsets (e.g. ``(-1, +1, -nx, +nx, -nx*ny, +nx*ny)`` for a 7-point
    3-D stencil).  Dynamic instance *k* accesses point
    ``(k // len(offsets))`` at offset ``offsets[k % len(offsets)]``, so a
    run of ``len(offsets)`` consecutive instances is one stencil
    application.
    """

    offsets: tuple = (0,)

    def __post_init__(self):
        super().__post_init__()
        if not self.offsets:
            raise ValueError("offsets must be non-empty")

    def addresses(self, start: int, count: int, rng: RngStream) -> np.ndarray:
        n_off = len(self.offsets)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        pos = np.arange(start, start + count, dtype=np.int64)
        center = (pos // n_off) % self.n_elements
        idx = (center + offsets[pos % n_off]) % self.n_elements
        return self.base + idx * self.element_size


@dataclass(frozen=True)
class PointerChasePattern(AccessPattern):
    """Dependent-load chain through a pseudo-random cycle.

    Models linked-list traversal: each access's address is a
    pseudo-random function of the previous position.  Implemented as a
    fixed permutation-free random walk (counter-based, like
    :class:`RandomPattern`, but with a hop-length distribution biased to
    short hops so TLB/cache behavior differs measurably from uniform
    random).
    """

    hop_elements: int = 4096

    def __post_init__(self):
        super().__post_init__()
        check_positive("hop_elements", self.hop_elements)

    @property
    def hop_window(self) -> int:
        """Hop lengths are drawn from ``[0, hop_window)`` elements."""
        return min(self.hop_elements, self.n_elements)

    def addresses(self, start: int, count: int, rng: RngStream) -> np.ndarray:
        n = np.uint64(self.n_elements)
        salt = np.uint64(_path_salt(rng))
        pos = np.arange(start, start + count, dtype=np.uint64)
        hops = _splitmix64(pos + salt) % np.uint64(self.hop_window)
        # cumulative position of instance k = sum of hops 0..k; to keep the
        # function counter-based (chunk-stable) we use a closed form:
        # position(k) = mix(k) scaled into a window that slides with k.
        window = _splitmix64((pos // np.uint64(64)) * np.uint64(0x9E3779B9) + salt) % n
        idx = ((window + hops) % n).astype(np.int64)
        return self.base + idx * self.element_size


# ----------------------------------------------------------------------
# counter-based hashing helpers


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 mix function (stateless, chunk-stable)."""
    with np.errstate(over="ignore"):
        z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def path_salt(*path, root: int) -> int:
    """The 64-bit salt of the stream at ``path`` under ``root``: derived
    from the path, not the generator state, so pattern output does not
    depend on how many draws other components made from the stream."""
    return derive_seed(*path, "pattern-salt", root=root)


def _path_salt(rng: RngStream) -> int:
    return path_salt(*rng.path, root=rng.root)
