"""Cache engines: how an instrumented program's hit rates are obtained.

Two interchangeable engines sit behind signature collection
(``--cache-engine`` on the CLI,
:attr:`repro.instrument.collector.CollectorConfig.engine`):

``exact``
    The replay path — every address through
    :class:`~repro.cache.simulator.HierarchySimulator` (exact LRU in a
    native kernel, warm-up pass plus measured pass).  Bit-identical to
    what collection produced before engines existed.

``reuse``
    The analytical path of :mod:`repro.cache.reuse` — profile each
    block's stream once into a reuse-distance histogram, evaluate the
    profile against every hierarchy level in closed form.  Approximate
    (rates agree with ``exact`` to ~1e-2) and guarded by a keyed-RNG
    cross-engine spot check
    (:func:`repro.guard.gates.cache_engine_spot_check`) that refuses to
    return silently divergent results.  It only pays off when one
    profile serves many geometries: against the native replay kernel a
    single-geometry collection is cheaper exact.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.reuse import (
    ProfileCache,
    congruence_moduli_for,
    cross_block_lines,
    hierarchy_hit_rates,
    line_sizes_of,
    profiles_for,
)
from repro.obs.metrics import REGISTRY
from repro.util.errors import CollectionError
from repro.util.rng import RngStream, stream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.guard.config import GuardConfig
    from repro.instrument.pebil import InstrumentationReport, InstrumentedProgram

#: recognized engine names, in CLI-choices order
ENGINE_NAMES = ("exact", "reuse")


class CacheEngine(ABC):
    """Strategy interface: instrumented program -> instrumentation report."""

    name: str = "?"

    @abstractmethod
    def run(
        self,
        instrumented: "InstrumentedProgram",
        rng: Optional[RngStream] = None,
    ) -> "InstrumentationReport":
        """Produce per-block observations for ``instrumented``."""


class ExactEngine(CacheEngine):
    """The replay engine: delegates to the simulator-backed run path."""

    name = "exact"

    def run(
        self,
        instrumented: "InstrumentedProgram",
        rng: Optional[RngStream] = None,
    ) -> "InstrumentationReport":
        return instrumented.run(rng)


class ReuseEngine(CacheEngine):
    """The analytical engine: reuse profiles instead of replay.

    Parameters
    ----------
    guard:
        Guard policy (:class:`~repro.guard.config.GuardConfig`); the
        cross-engine check runs unless it is ``policy="off"``.
    cache:
        Profile store; defaults to the process-global
        :func:`repro.cache.reuse.profile_cache`.
    """

    name = "reuse"

    def __init__(
        self,
        guard: Optional["GuardConfig"] = None,
        cache: Optional[ProfileCache] = None,
    ):
        self._guard = guard
        self._cache = cache

    def run(
        self,
        instrumented: "InstrumentedProgram",
        rng: Optional[RngStream] = None,
    ) -> "InstrumentationReport":
        from repro.instrument.pebil import (
            BlockObservation,
            InstrumentationReport,
        )

        program = instrumented.program
        hierarchy = instrumented.hierarchy
        if rng is None:
            rng = stream("pebil", program.name, hierarchy.name)
        n_levels = hierarchy.n_levels
        line_sizes = line_sizes_of(hierarchy)
        observations: Dict[int, BlockObservation] = {}
        profiled: List[Tuple[object, int]] = []  # (block, sampled iters)
        streams: List[Tuple[list, list]] = []  # aligned (patterns, counts)
        for block in program.blocks:
            n_mem = len(block.mem_instructions)
            iters = instrumented._sampled_iterations(block)
            if n_mem == 0 or iters == 0:
                observations[block.block_id] = BlockObservation(
                    block_id=block.block_id,
                    sampled_iterations=iters,
                    full_iterations=block.exec_count,
                    accesses=np.zeros(n_mem, dtype=np.int64),
                    level_hits=np.zeros((n_mem, n_levels), dtype=np.int64),
                )
                continue
            profiled.append((block, iters))
            streams.append(
                (
                    [m.pattern for m in block.mem_instructions],
                    [m.per_iteration * iters for m in block.mem_instructions],
                )
            )
        # first-touch survival depends on the *other* blocks' traffic
        # between two program-order executions of a block
        extras = {ls: cross_block_lines(streams, ls) for ls in line_sizes}
        set_counts = [g.n_sets for g in hierarchy.levels]
        for b, (block, iters) in enumerate(profiled):
            patterns, counts = streams[b]
            profiles = profiles_for(
                patterns,
                counts,
                line_sizes,
                chunk=instrumented.chunk,
                root=rng.root,
                cache=self._cache,
                moduli=congruence_moduli_for(patterns, set_counts),
            )
            rates = hierarchy_hit_rates(
                profiles,
                hierarchy,
                {ls: float(extras[ls][b]) for ls in line_sizes},
            )
            totals = profiles[line_sizes[0]].totals
            # express cumulative rates as per-level hit counts so the
            # observation recomposes them exactly like the exact engine
            cum_hits = rates * totals[:, None]
            level_hits = np.diff(cum_hits, axis=1, prepend=0.0)
            observations[block.block_id] = BlockObservation(
                block_id=block.block_id,
                sampled_iterations=iters,
                full_iterations=block.exec_count,
                accesses=totals,
                level_hits=level_hits,
            )
            REGISTRY.inc("cachesim.reuse.blocks")
        self._spot_check(instrumented, profiled)
        return InstrumentationReport(
            program_name=program.name,
            hierarchy_name=hierarchy.name,
            observations=observations,
        )

    def _spot_check(self, instrumented, profiled) -> None:
        """Cross-engine guard gate: refuse silent reuse/exact divergence."""
        from repro.guard.gates import cache_engine_spot_check

        if not profiled or (self._guard is not None and not self._guard.enabled):
            return
        outcome = cache_engine_spot_check(
            instrumented.hierarchy,
            profiled,
            chunk=instrumented.chunk,
            seed_tokens=(
                instrumented.program.name,
                instrumented.hierarchy.name,
            ),
        )
        if outcome.flags:
            worst = max(outcome.flags, key=lambda f: f.score)
            raise CollectionError(
                f"reuse cache engine diverged from exact on "
                f"{len(outcome.flags)} spot-checked level(s); worst: block "
                f"{worst.block_id} {worst.feature} off by {worst.score:.4f} "
                f"(tolerance {worst.threshold:g}) — rerun with "
                f"--cache-engine exact or --guard off",
                stage="collect",
                task_key=f"cachesim:{instrumented.program.name}",
            )


def get_engine(
    name: str,
    *,
    guard: Optional["GuardConfig"] = None,
    cache: Optional[ProfileCache] = None,
) -> CacheEngine:
    """Build the named engine (``guard``/``cache`` apply to ``reuse``)."""
    if name == "exact":
        return ExactEngine()
    if name == "reuse":
        return ReuseEngine(guard=guard, cache=cache)
    raise ValueError(
        f"unknown cache engine {name!r}; known engines: {ENGINE_NAMES}"
    )
