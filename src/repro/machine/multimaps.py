"""MultiMAPS: memory-bandwidth probing of a (simulated) machine.

The real MultiMAPS benchmark [Snavely et al., SC'02] sweeps working-set
sizes and strides, timing a load loop for each combination; plotted
against the cache hit rates each probe induces, the measurements form the
bandwidth surface of Fig. 1.

Here the "machine" is a :class:`~repro.cache.hierarchy.CacheHierarchy`
plus :class:`~repro.machine.timing.HardwareTiming`.  Each probe generates
a strided address stream, runs it through the cache simulator to find
where references are served, and asks the hardware timing for the
achieved bandwidth — the same observe-don't-read discipline as the real
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.simulator import HierarchySimulator
from repro.machine.surface import BandwidthSurface
from repro.machine.timing import HardwareTiming
from repro.memstream.generator import pattern_addresses
from repro.memstream.patterns import StridedPattern
from repro.util.rng import RngStream, stream
from repro.util.units import KB
from repro.util.validation import check_positive

#: Default working-set sweep: 4KB up to 32MB, covering every level of all
#: predefined hierarchies plus main memory.
DEFAULT_WORKING_SETS = tuple(
    int(4 * KB * 2 ** (i / 2.0)) for i in range(0, 27)
)

#: Default stride sweep in elements (8-byte doubles): unit stride through
#: a full cache line and beyond.
DEFAULT_STRIDES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class MultiMAPSProbe:
    """One probe point of the sweep."""

    working_set_bytes: int
    stride_elements: int
    element_size: int = 8

    def __post_init__(self):
        check_positive("working_set_bytes", self.working_set_bytes)
        check_positive("stride_elements", self.stride_elements)
        check_positive("element_size", self.element_size)


@dataclass
class MultiMAPSResult:
    """Sweep output: one row per probe.

    ``hit_rates[i]`` are the cumulative per-level hit rates probe ``i``
    induced on the hierarchy; ``bandwidths_gbs[i]`` is its achieved
    bandwidth.  ``surface()`` fits the interpolating model.
    """

    hierarchy_name: str
    probes: List[MultiMAPSProbe]
    hit_rates: np.ndarray
    bandwidths_gbs: np.ndarray

    def surface(self) -> BandwidthSurface:
        """Fit the bandwidth surface from this sweep's samples."""
        return BandwidthSurface.fit(
            self.hit_rates, self.bandwidths_gbs, name=self.hierarchy_name
        )

    def table_rows(self) -> List[tuple]:
        """(working set, stride, hit rates..., bandwidth) rows for reports."""
        rows = []
        for probe, rates, bw in zip(self.probes, self.hit_rates, self.bandwidths_gbs):
            rows.append(
                (
                    probe.working_set_bytes,
                    probe.stride_elements,
                    *(float(r) for r in rates),
                    float(bw),
                )
            )
        return rows


def run_multimaps(
    hierarchy: CacheHierarchy,
    timing: HardwareTiming,
    *,
    working_sets: Sequence[int] = DEFAULT_WORKING_SETS,
    strides: Sequence[int] = DEFAULT_STRIDES,
    accesses_per_probe: int = 200_000,
    rng: Optional[RngStream] = None,
    chunk: int = 1 << 16,
) -> MultiMAPSResult:
    """Run the MultiMAPS sweep against a simulated machine.

    Parameters
    ----------
    hierarchy, timing:
        The machine under test.
    working_sets, strides:
        Sweep axes.
    accesses_per_probe:
        Dynamic accesses per probe; each probe makes several passes over
        its working set so steady-state (warm) hit rates dominate the
        cold-start transient, like the real benchmark's repeat loops.
    """
    if timing.n_levels != hierarchy.n_levels:
        raise ValueError(
            "timing level count does not match hierarchy "
            f"({timing.n_levels} vs {hierarchy.n_levels})"
        )
    if rng is None:
        rng = stream("multimaps", hierarchy.name)
    probes: List[MultiMAPSProbe] = []
    all_rates: List[np.ndarray] = []
    bandwidths: List[float] = []
    for ws in working_sets:
        for stride in strides:
            probe = MultiMAPSProbe(working_set_bytes=int(ws), stride_elements=int(stride))
            pattern = StridedPattern(
                region_bytes=max(int(ws), probe.element_size),
                element_size=probe.element_size,
                stride_elements=int(stride),
            )
            sim = HierarchySimulator(hierarchy)
            # warm-up pass over the working set, excluded from measurement
            warm = min(pattern.n_elements, accesses_per_probe)
            sim.process(pattern_addresses(pattern, 0, warm, rng))
            sim.clear_counters()  # keep caches warm, measure steady state
            produced = warm
            while produced < warm + accesses_per_probe:
                n = min(chunk, warm + accesses_per_probe - produced)
                sim.process(pattern_addresses(pattern, produced, n, rng))
                produced += n
            result = sim.result()
            hits = np.array([lv.hits for lv in result.levels])
            total = result.total_accesses
            served = np.append(hits, total - hits.sum()).astype(np.float64)
            rates = np.cumsum(hits) / total
            bw = timing.achieved_bandwidth_gbs(served, ref_bytes=probe.element_size)
            probes.append(probe)
            all_rates.append(rates)
            bandwidths.append(bw)
    return MultiMAPSResult(
        hierarchy_name=hierarchy.name,
        probes=probes,
        hit_rates=np.array(all_rates),
        bandwidths_gbs=np.array(bandwidths),
    )
