"""Multi-level set-associative cache simulation.

This is the substrate behind the paper's on-the-fly application-signature
collection (Fig. 2): every memory address an instrumented program emits is
pushed through a simulator configured like the *target* system's memory
hierarchy, producing per-basic-block cache hit rates for that target —
without ever running on the target.

Three implementations are provided, two of them behind the
:class:`repro.cache.engine.CacheEngine` interface signature collection
dispatches on (``--cache-engine``):

- :class:`repro.cache.simulator.HierarchySimulator` — the ``exact``
  engine's replay core.  Exact LRU semantics; each address chunk walks
  the whole hierarchy in one call of a small C kernel
  (:mod:`repro.cache.native`), compiled on first use and cached.
- :mod:`repro.cache.reuse` — the ``reuse`` engine's analytical core:
  one-pass reuse-distance profiles evaluated per geometry in closed
  form, no replay (DESIGN.md §7.8).
- :mod:`repro.cache.reference` — a straightforward scalar simulator:
  the oracle the kernel is tested against, and the simulator's replay
  path when no C compiler is present.
"""

from repro.cache.engine import (
    ENGINE_NAMES,
    CacheEngine,
    ExactEngine,
    ReuseEngine,
    get_engine,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.reference import ReferenceCacheLevel, simulate_reference
from repro.cache.reuse import (
    ProfileCache,
    ReuseProfile,
    configure_profile_cache,
    cross_block_lines,
    profile_cache,
)
from repro.cache.simulator import HierarchySimulator, LevelStats, SimulationResult

__all__ = [
    "CacheGeometry",
    "CacheHierarchy",
    "CacheEngine",
    "ENGINE_NAMES",
    "ExactEngine",
    "ReuseEngine",
    "get_engine",
    "HierarchySimulator",
    "LevelStats",
    "SimulationResult",
    "ProfileCache",
    "ReuseProfile",
    "configure_profile_cache",
    "cross_block_lines",
    "profile_cache",
    "ReferenceCacheLevel",
    "simulate_reference",
]
