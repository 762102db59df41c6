"""Scalar reference cache simulator for cross-validation.

Implements textbook set-associative LRU one access at a time.  It is
orders of magnitude slower than the native kernel behind
:class:`repro.cache.simulator.HierarchySimulator` but trivially
auditable; the test suite checks the two produce identical hit
sequences on every access-pattern class, and the simulator replays
through it when no C compiler is present.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy


class ReferenceCacheLevel:
    """One set-associative LRU level, simulated scalar-ly."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        # per-set list of resident line ids, most recently used last
        self._sets: List[List[int]] = [[] for _ in range(geometry.n_sets)]

    def access(self, address: int) -> bool:
        """Simulate one access; return True on hit."""
        line = address // self.geometry.line_size
        set_id = line % self.geometry.n_sets
        resident = self._sets[set_id]
        if line in resident:
            resident.remove(line)
            resident.append(line)
            return True
        if len(resident) >= self.geometry.associativity:
            resident.pop(0)  # least recently used
        resident.append(line)
        return False


def simulate_reference(
    hierarchy: CacheHierarchy, addresses: Sequence[int]
) -> Tuple[np.ndarray, List[int]]:
    """Simulate ``addresses`` through ``hierarchy`` scalar-ly.

    Returns
    -------
    (deepest_hit_level, per_level_hits):
        ``deepest_hit_level[i]`` is the index of the level that served
        access ``i`` (``n_levels`` means main memory);
        ``per_level_hits[j]`` is the number of hits at level ``j``.
    """
    levels = [ReferenceCacheLevel(g) for g in hierarchy.levels]
    served = np.empty(len(addresses), dtype=np.int32)
    hits = [0] * len(levels)
    for i, addr in enumerate(addresses):
        addr = int(addr)
        level_idx = len(levels)
        for j, level in enumerate(levels):
            if level.access(addr):
                level_idx = j
                hits[j] += 1
                break
        # NOTE: on a miss in level j the access continues outward, and
        # the line is installed in every level it traversed (the replay
        # kernel walks the hierarchy the same way).
        served[i] = level_idx
    return served, hits
