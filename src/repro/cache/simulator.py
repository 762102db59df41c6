"""Exact-LRU multi-level cache simulation.

:class:`HierarchySimulator` pushes in-order address chunks through a
set-associative LRU hierarchy.  One call of the C kernel in
:mod:`repro.cache.native` replays a whole chunk: each access walks
outward until a level holds its line, every level it passed installs
the line, and the kernel tallies the serving level per instruction, so
the per-level and per-instruction counters come out of one histogram.
Without a C compiler the same walk runs through
:class:`repro.cache.reference.ReferenceCacheLevel` (one warning).  The
test suite checks the kernel against that scalar reference access by
access on every pattern class and a zoo of geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.cache import native
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.reference import ReferenceCacheLevel
from repro.obs.metrics import REGISTRY
from repro.util.native import load


@dataclass
class LevelStats:
    """Accumulated per-level counters.

    ``accesses``/``hits`` are level-local (an access reaches level *i*
    only if it missed all inner levels).  Per-instruction arrays are
    indexed by instruction id and sized on demand; they are views into
    geometrically-grown backing buffers, so repeated growth is amortized
    O(1) per element rather than O(n^2) re-concatenation.
    """

    name: str
    accesses: int = 0
    hits: int = 0
    instr_accesses: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    instr_hits: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    def __post_init__(self):
        self._acc_buf = self.instr_accesses
        self._hit_buf = self.instr_hits

    def _grow(self, n: int) -> None:
        if self.instr_accesses.shape[0] >= n:
            return
        cap = self._acc_buf.shape[0]
        if cap < n:
            new_cap = max(n, 2 * cap)
            acc = np.zeros(new_cap, dtype=np.int64)
            acc[:cap] = self._acc_buf
            hit = np.zeros(new_cap, dtype=np.int64)
            hit[:cap] = self._hit_buf
            self._acc_buf, self._hit_buf = acc, hit
        self.instr_accesses = self._acc_buf[:n]
        self.instr_hits = self._hit_buf[:n]

    def add(
        self, accesses: np.ndarray, hits: np.ndarray, per_instruction: bool = True
    ) -> None:
        """Add tallies indexed by instruction id; ``per_instruction=False``
        adds them to the totals only."""
        self.accesses += int(accesses.sum())
        self.hits += int(hits.sum())
        if per_instruction:
            n = accesses.shape[0]
            self._grow(n)
            self.instr_accesses[:n] += accesses
            self.instr_hits[:n] += hits

    @property
    def local_hit_rate(self) -> float:
        """Hits over accesses *that reached this level*."""
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class SimulationResult:
    """Final counters of a hierarchy simulation."""

    hierarchy: CacheHierarchy
    levels: List[LevelStats]
    total_accesses: int

    def cumulative_hit_rates(self) -> np.ndarray:
        """Fraction of *all* references served at or before each level.

        This is the paper's hit-rate convention: Table II reports
        monotonically non-decreasing L1/L2/L3 rates for one block.
        """
        if self.total_accesses == 0:
            return np.zeros(len(self.levels))
        hits = np.array([lv.hits for lv in self.levels], dtype=np.float64)
        return np.cumsum(hits) / self.total_accesses

    def instruction_cumulative_hit_rates(self, n_instructions: int) -> np.ndarray:
        """Per-instruction cumulative hit rates, shape (n_instr, n_levels).

        One vectorized pass: the per-level hit counters are padded into
        a dense ``(n_instr, n_levels)`` matrix, cumulative-summed along
        levels, and divided by the level-0 access totals in a single
        masked divide (unseen instructions keep all-zero rows).
        """
        n_levels = len(self.levels)
        out = np.zeros((n_instructions, n_levels))
        if not self.levels or n_instructions == 0:
            return out
        total = np.zeros(n_instructions, dtype=np.int64)
        lv0 = self.levels[0]
        k = min(n_instructions, lv0.instr_accesses.shape[0])
        total[:k] = lv0.instr_accesses[:k]
        hits = np.zeros((n_instructions, n_levels))
        for j, lv in enumerate(self.levels):
            k = min(n_instructions, lv.instr_hits.shape[0])
            hits[:k, j] = lv.instr_hits[:k]
        cum = np.cumsum(hits, axis=1)
        seen = total > 0
        np.divide(
            cum,
            total[:, None].astype(np.float64),
            out=out,
            where=seen[:, None],
        )
        return out


class HierarchySimulator:
    """Simulates a full hierarchy over a chunked address stream.

    Typical use::

        sim = HierarchySimulator(hierarchy)
        for instr_idx, addrs in stream_chunks:
            sim.process(addrs, instr_idx)
        result = sim.result()
    """

    def __init__(self, hierarchy: CacheHierarchy):
        self.hierarchy = hierarchy
        self._kernel = load(native.KERNEL)
        rows, offset = [], 0
        for g in hierarchy.levels:
            pow2 = g.n_sets & (g.n_sets - 1) == 0
            rows.append([g.line_size.bit_length() - 1, g.n_sets, g.associativity,
                         g.n_sets - 1 if pow2 else -1, offset])
            offset += g.n_sets * (1 + g.associativity)
        self._geom = np.array(rows, dtype=np.int64)
        self._state = np.zeros(offset, dtype=np.int64)
        self.reset()

    def reset(self) -> None:
        """Clear all cache state and counters."""
        self._state.fill(0)  # every set's fill count: empty
        if self._kernel is None:
            self._reference = [ReferenceCacheLevel(g) for g in self.hierarchy.levels]
        self.clear_counters()

    def clear_counters(self) -> None:
        """Zero the statistics but keep cache contents warm.

        Used by warm-up passes (MultiMAPS probes, signature collection):
        simulate the stream once to reach steady state, clear, then
        measure a second pass.
        """
        self._stats = [LevelStats(g.name) for g in self.hierarchy.levels]
        self._total = 0

    def process(
        self, addresses: np.ndarray, instr_idx: Optional[np.ndarray] = None
    ) -> None:
        """Push one in-order chunk of byte addresses through the hierarchy."""
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        n = int(addresses.shape[0])
        n_keys = 1
        if instr_idx is not None:
            instr_idx = np.ascontiguousarray(instr_idx, dtype=np.int64)
            if instr_idx.shape != addresses.shape:
                raise ValueError("instr_idx shape must match addresses")
            if n:
                if int(instr_idx.min()) < 0:
                    raise ValueError("instr_idx must be non-negative")
                n_keys = int(instr_idx.max()) + 1
        self._total += n
        REGISTRY.inc("cachesim.chunks")
        REGISTRY.inc("cachesim.accesses", n)
        if n == 0:
            return
        n_levels = len(self._stats)
        # counts[k, j]: accesses of instruction k served by level j
        # (j == n_levels: memory)
        counts = np.zeros((n_keys, n_levels + 1), dtype=np.int64)
        if self._kernel is not None:
            self._kernel(
                n_levels, self._geom.ctypes.data, self._state.ctypes.data,
                addresses.ctypes.data,
                None if instr_idx is None else instr_idx.ctypes.data,
                n, counts.ctypes.data,
            )
        else:
            keys = [0] * n if instr_idx is None else instr_idx.tolist()
            for address, key in zip(addresses.tolist(), keys):
                j = 0
                while j < n_levels and not self._reference[j].access(address):
                    j += 1
                counts[key, j] += 1
        # accesses that reached level j: served by it or further out
        reached = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
        for j, stats in enumerate(self._stats):
            stats.add(reached[:, j], counts[:, j], instr_idx is not None)

    def result(self) -> SimulationResult:
        """Snapshot the accumulated statistics."""
        return SimulationResult(
            hierarchy=self.hierarchy,
            levels=list(self._stats),
            total_accesses=self._total,
        )
