"""UH3D proxy: hybrid particle-in-cell magnetosphere simulation.

UH3D (Karimabadi et al., ref [3] of the paper) treats ions as particles
and electrons as a fluid on a 3-D grid.  The proxy's time loop:

1. ``particle_push`` — Boris push over particle SoA arrays: pure
   streaming, FMA-rich; work scales with local particle count.
2. ``field_gather`` — interpolate E/B to particle positions: indirect
   reads into the field arrays with partial locality (particles are
   quasi-sorted by cell).  Field arrays shrink 1/P under strong scaling,
   so the hit rates of this block climb with the core count — the
   behavior Table II reports.
3. ``current_scatter`` — charge/current deposition: indirect
   read-modify-write into grid arrays.
4. ``field_solve`` — electromagnetic field update: 7-point stencil
   sweeps over the local grid.
5. ``electron_fluid`` — fluid electron pressure/momentum update:
   streaming over grid arrays.
6. ``exchange_pack`` — packing boundary-crossing particles.
7. ``div_clean_stages`` — local combine stages of the divergence-clean
   reduction: grows ~log2(P).

Load imbalance comes from a spatially non-uniform particle density
(dayside compression peak), quantized to a small number of levels so the
ground-truth simulator's per-class detailed runs stay tractable.  The
domain is periodic (no physical-boundary work), so rank classes are
density classes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.apps.base import AppModel, ScalingMode
from repro.apps.decomposition import SLOTS, CartesianDecomposition, factor3, rank_row
from repro.instrument.builder import ProgramBuilder
from repro.instrument.program import Program
from repro.memstream.patterns import (
    GatherScatterPattern,
    StencilPattern,
    StridedPattern,
)
from repro.simmpi.runtime import AllRanksComm

BLOCK_PARTICLE_PUSH = 0
BLOCK_FIELD_GATHER = 1
BLOCK_CURRENT_SCATTER = 2
BLOCK_FIELD_SOLVE = 3
BLOCK_ELECTRON_FLUID = 4
BLOCK_EXCHANGE_PACK = 5
BLOCK_DIV_CLEAN = 6

#: bytes per particle: position(3) + velocity(3) doubles
_BYTES_PER_PARTICLE = 6 * 8
#: bytes per grid cell per field array (one double component)
_BYTES_PER_CELL = 8
#: number of field arrays gathered per particle (E and B, 3 comps each)
_FIELD_ARRAYS = 6


@dataclass(frozen=True)
class UH3DParams:
    """Workload parameters (defaults sized for 1024..8192 ranks)."""

    global_cells: Tuple[int, int, int] = (512, 512, 512)
    particles_per_cell: float = 16.0
    #: dayside density enhancement factor at the peak
    density_peak: float = 2.5
    #: number of quantized density levels (rank equivalence classes)
    density_levels: int = 6
    n_steps: int = 4
    field_solve_iters: int = 3
    #: fraction of local particles crossing rank boundaries per step
    exchange_fraction: float = 0.05
    div_clean_buffer: int = 2048
    weak_cells_per_rank: Tuple[int, int, int] = (32, 32, 32)


class UH3DProxy(AppModel):
    """Strong-scaled hybrid PIC magnetosphere proxy."""

    name = "uh3d"

    def __init__(
        self,
        params: UH3DParams = UH3DParams(),
        scaling: ScalingMode = ScalingMode.STRONG,
    ):
        self.params = params
        self.scaling = scaling

    @lru_cache(maxsize=32)
    def decomposition(self, n_ranks: int) -> CartesianDecomposition:
        if self.scaling is ScalingMode.STRONG:
            cells = self.params.global_cells
        else:
            grid = factor3(n_ranks)
            cells = tuple(
                c * g for c, g in zip(self.params.weak_cells_per_rank, grid)
            )
        return CartesianDecomposition(cells, n_ranks, periodic=(True, True, True))

    # ------------------------------------------------------------------
    # particle density model

    @lru_cache(maxsize=32)
    def density_levels(self, n_ranks: int) -> np.ndarray:
        """Quantized density level (0..levels-1) of every rank.

        The density field is a fixed function of *normalized* domain
        position — a Gaussian enhancement centered on the dayside
        (x=0.25 plane) — so a rank's level depends on where its subdomain
        sits, not on the core count: the same physical region is always
        the busiest, giving the slowest task a consistent identity
        across core counts.
        """
        dec = self.decomposition(n_ranks)
        pos = (dec.table.coords + 0.5) / np.array(dec.grid)
        dx = pos[:, 0] - 0.25
        dy = pos[:, 1] - 0.5
        dz = pos[:, 2] - 0.5
        exponent = -(dx * dx + dy * dy + dz * dz) / 0.08
        # math.exp per rank: np.exp can differ from it in the last bit,
        # which could move a rank across a level boundary
        enhancement = np.array([math.exp(x) for x in exponent.tolist()])
        density = 1.0 + (self.params.density_peak - 1.0) * enhancement
        # quantize into [1, density_peak]
        levels = self.params.density_levels
        frac = (density - 1.0) / max(self.params.density_peak - 1.0, 1e-12)
        out = np.minimum((frac * levels).astype(np.int64), levels - 1)
        out.flags.writeable = False
        return out

    def _density_of_level(self, level: int) -> float:
        levels = self.params.density_levels
        frac = (level + 0.5) / levels
        return 1.0 + (self.params.density_peak - 1.0) * frac

    # ------------------------------------------------------------------
    # per-step iteration counts of every rank (shared by program and script)

    def _counts(self, n_ranks: int) -> dict:
        cells = self.decomposition(n_ranks).table.n_cells
        density = np.array(
            [self._density_of_level(level) for level in range(self.params.density_levels)]
        )[self.density_levels(n_ranks)]
        particles = (cells * self.params.particles_per_cell * density).astype(np.int64)
        return {
            "cells": cells,
            "particles": particles,
            "exchange_particles": np.maximum(
                1, (particles * self.params.exchange_fraction).astype(np.int64)
            ),
        }

    def _div_iters(self, n_ranks: int) -> int:
        tree_depth = max(1, math.ceil(math.log2(max(n_ranks, 2))))
        return self.params.div_clean_buffer * tree_depth

    def rank_program(self, rank: int, n_ranks: int) -> Program:
        c = rank_row(self._counts(n_ranks), rank)
        c["div_iters"] = self._div_iters(n_ranks)
        steps = self.params.n_steps
        particle_bytes = max(c["particles"] * _BYTES_PER_PARTICLE, 4096)
        field_bytes = max(c["cells"] * _BYTES_PER_CELL * _FIELD_ARRAYS, 4096)
        grid_bytes = max(c["cells"] * _BYTES_PER_CELL, 4096)
        exchange_bytes = max(c["exchange_particles"] * _BYTES_PER_PARTICLE, 512)
        div_bytes = self.params.div_clean_buffer * 8
        nx, ny, _nz = self.decomposition(n_ranks).geometry(rank).local_cells
        stencil = (-nx * ny, -nx, -1, 0, 1, nx, nx * ny)
        return (
            ProgramBuilder(f"{self.name}-r{rank}-p{n_ranks}")
            # 1. Boris push: streaming over particle SoA
            .block("particle_push", file="push_ions.f90", line=120,
                   block_id=BLOCK_PARTICLE_PUSH)
            .load(StridedPattern(region_bytes=particle_bytes), per_iteration=6)
            .store(StridedPattern(region_bytes=particle_bytes), per_iteration=6)
            .fp({"fp_fma": 24, "fp_add": 9, "fp_mul": 9}, ilp=3.0, dep_chain=5.0)
            .executes(c["particles"] * steps)
            .done()
            # 2. field gather: indirect reads into shrinking field arrays
            .block("field_gather", file="gather_fields.f90", line=64,
                   block_id=BLOCK_FIELD_GATHER)
            .load(
                GatherScatterPattern(
                    region_bytes=field_bytes, locality=0.55, cluster_elements=48
                ),
                per_iteration=8,
            )
            .load(StridedPattern(region_bytes=particle_bytes), per_iteration=3)
            .fp({"fp_fma": 30, "fp_add": 6}, ilp=2.8, dep_chain=4.0)
            .executes(c["particles"] * steps)
            .done()
            # 3. current deposition: indirect read-modify-write
            .block("current_scatter", file="deposit_current.f90", line=88,
                   block_id=BLOCK_CURRENT_SCATTER)
            .load(
                GatherScatterPattern(
                    region_bytes=grid_bytes, locality=0.55, cluster_elements=48
                ),
                per_iteration=4,
            )
            .store(
                GatherScatterPattern(
                    region_bytes=grid_bytes, locality=0.55, cluster_elements=48
                ),
                per_iteration=4,
            )
            .fp({"fp_fma": 12, "fp_add": 4}, ilp=2.2, dep_chain=3.5)
            .executes(c["particles"] * steps)
            .done()
            # 4. field solve: stencil sweeps
            .block("field_solve", file="field_solver.f90", line=150,
                   block_id=BLOCK_FIELD_SOLVE)
            .load(
                StencilPattern(region_bytes=grid_bytes, offsets=stencil),
                per_iteration=7,
            )
            .store(StridedPattern(region_bytes=grid_bytes))
            .fp({"fp_fma": 8, "fp_add": 6}, ilp=3.0, dep_chain=3.0)
            .executes(c["cells"] * self.params.field_solve_iters * steps)
            .done()
            # 5. electron fluid update: streaming over grid arrays
            .block("electron_fluid", file="electron_fluid.f90", line=97,
                   block_id=BLOCK_ELECTRON_FLUID)
            .load(StridedPattern(region_bytes=field_bytes), per_iteration=4)
            .store(StridedPattern(region_bytes=grid_bytes), per_iteration=2)
            .fp({"fp_fma": 10, "fp_mul": 4, "fp_div": 0.5}, ilp=2.5, dep_chain=4.5)
            .executes(c["cells"] * steps)
            .done()
            # 6. particle-exchange packing
            .block("exchange_pack", file="exchange_particles.f90", line=41,
                   block_id=BLOCK_EXCHANGE_PACK)
            .load(StridedPattern(region_bytes=particle_bytes, stride_elements=16),
                  per_iteration=6)
            .store(StridedPattern(region_bytes=exchange_bytes), per_iteration=6)
            .executes(c["exchange_particles"] * steps)
            .done()
            # 7. divergence-clean combine stages (grows ~log2 P)
            .block("div_clean_stages", file="divergence_clean.f90", line=73,
                   block_id=BLOCK_DIV_CLEAN)
            .load(StridedPattern(region_bytes=div_bytes), per_iteration=2)
            .store(StridedPattern(region_bytes=div_bytes))
            .fp({"fp_add": 2}, ilp=4.0, dep_chain=1.5)
            .executes(c["div_iters"] * steps)
            .done()
            .build()
        )

    def rank_script(self, comm: AllRanksComm) -> None:
        c = self._counts(comm.size)
        geo = self.decomposition(comm.size).table
        n_neighbors = np.count_nonzero(geo.neighbors >= 0, axis=1)
        particle_msg = np.maximum(
            1, c["exchange_particles"] // np.maximum(n_neighbors, 1)
        ) * _BYTES_PER_PARTICLE
        # particle exchange: sizes depend on the *sender's* load, so post
        # sends first, then receive what each neighbor sent (a peer of -1
        # records nothing, so its looked-up size is never used)
        particle_sends = [
            (geo.neighbors[:, slot], particle_msg, 10 + dim)
            for slot, (dim, _direction) in enumerate(SLOTS)
        ]
        particle_recvs = [
            (peer, particle_msg[peer], tag) for peer, _nbytes, tag in particle_sends
        ]
        field_halo = [
            (geo.neighbors[:, slot],
             geo.face_cells[:, dim] * _BYTES_PER_CELL * _FIELD_ARRAYS,
             20 + dim)
            for slot, (dim, _direction) in enumerate(SLOTS)
        ]
        for _step in range(self.params.n_steps):
            comm.compute(BLOCK_FIELD_GATHER, c["particles"])
            comm.compute(BLOCK_PARTICLE_PUSH, c["particles"])
            comm.compute(BLOCK_EXCHANGE_PACK, c["exchange_particles"])
            for peer, nbytes, tag in particle_sends:
                comm.send(peer, nbytes, tag=tag)
            for peer, nbytes, tag in particle_recvs:
                comm.recv(peer, nbytes, tag=tag)
            comm.compute(BLOCK_CURRENT_SCATTER, c["particles"])
            comm.compute(
                BLOCK_FIELD_SOLVE, c["cells"] * self.params.field_solve_iters
            )
            # field halo exchange
            for peer, nbytes, tag in field_halo:
                comm.send(peer, nbytes, tag=tag)
            for peer, nbytes, tag in field_halo:
                comm.recv(peer, nbytes, tag=tag)
            comm.compute(BLOCK_ELECTRON_FLUID, c["cells"])
            comm.compute(BLOCK_DIV_CLEAN, self._div_iters(comm.size))
            comm.allreduce(16)

    def equivalence_classes(self, n_ranks: int) -> List[List[int]]:
        """Group ranks by (geometry, density level)."""
        dec = self.decomposition(n_ranks)
        return dec.equivalence_classes(self.density_levels(n_ranks))
