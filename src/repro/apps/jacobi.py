"""Jacobi 7-point stencil proxy: the minimal teaching workload.

A fixed 3-D grid, one sweep + residual per time step, face halo
exchanges, and an allreduce on the residual.  Small enough to trace at
every rank in tests, yet it exercises every pipeline stage the big
proxies do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.apps.base import AppModel, ScalingMode
from repro.apps.decomposition import SLOTS, CartesianDecomposition
from repro.instrument.builder import ProgramBuilder
from repro.instrument.program import Program
from repro.memstream.patterns import StencilPattern, StridedPattern
from repro.simmpi.runtime import AllRanksComm

#: Block ids (stable across core counts, as extrapolation requires).
BLOCK_SWEEP = 0
BLOCK_RESIDUAL = 1
BLOCK_HALO_PACK = 2

_BYTES_PER_CELL = 8


@dataclass(frozen=True)
class JacobiParams:
    """Workload parameters."""

    global_cells: Tuple[int, int, int] = (192, 192, 192)
    n_steps: int = 4
    #: per-rank cells in weak-scaling mode
    weak_cells_per_rank: Tuple[int, int, int] = (48, 48, 48)


class JacobiProxy(AppModel):
    """7-point Jacobi relaxation over a 3-D grid."""

    name = "jacobi"

    def __init__(
        self,
        params: JacobiParams = JacobiParams(),
        scaling: ScalingMode = ScalingMode.STRONG,
    ):
        self.params = params
        self.scaling = scaling

    # ------------------------------------------------------------------

    @lru_cache(maxsize=32)
    def decomposition(self, n_ranks: int) -> CartesianDecomposition:
        if self.scaling is ScalingMode.STRONG:
            cells = self.params.global_cells
        else:
            from repro.apps.decomposition import factor3

            grid = factor3(n_ranks)
            cells = tuple(
                c * g for c, g in zip(self.params.weak_cells_per_rank, grid)
            )
        return CartesianDecomposition(cells, n_ranks)

    def rank_program(self, rank: int, n_ranks: int) -> Program:
        geom = self.decomposition(n_ranks).geometry(rank)
        n_cells = geom.n_cells
        nx, ny, _nz = geom.local_cells
        grid_bytes = max(n_cells * _BYTES_PER_CELL, 64)
        halo_bytes = max(geom.halo_cells() * _BYTES_PER_CELL, 64)
        steps = self.params.n_steps
        offsets = (-nx * ny, -nx, -1, 0, 1, nx, nx * ny)
        return (
            ProgramBuilder(f"{self.name}-r{rank}-p{n_ranks}")
            .block("jacobi_sweep", file="jacobi.f90", line=42, block_id=BLOCK_SWEEP)
            .load(
                StencilPattern(region_bytes=grid_bytes, offsets=offsets),
                per_iteration=7,
            )
            .store(StridedPattern(region_bytes=grid_bytes))
            .fp({"fp_add": 6, "fp_mul": 1}, ilp=2.5, dep_chain=3.0)
            .executes(n_cells * steps)
            .done()
            .block("residual", file="jacobi.f90", line=77, block_id=BLOCK_RESIDUAL)
            .load(StridedPattern(region_bytes=grid_bytes), per_iteration=2)
            .fp({"fp_add": 2, "fp_mul": 1}, ilp=3.0, dep_chain=2.0)
            .executes(n_cells * steps)
            .done()
            .block("halo_pack", file="jacobi.f90", line=103, block_id=BLOCK_HALO_PACK)
            .load(StridedPattern(region_bytes=grid_bytes, stride_elements=4))
            .store(StridedPattern(region_bytes=halo_bytes))
            .executes(max(geom.halo_cells(), 1) * steps)
            .done()
            .build()
        )

    def rank_script(self, comm: AllRanksComm) -> None:
        geo = self.decomposition(comm.size).table
        n_cells = geo.n_cells
        halo_cells = np.maximum(geo.halo_cells, 1)
        messages = [
            (geo.neighbors[:, slot], geo.face_cells[:, dim] * _BYTES_PER_CELL, dim)
            for slot, (dim, _direction) in enumerate(SLOTS)
        ]
        for _step in range(self.params.n_steps):
            comm.compute(BLOCK_SWEEP, n_cells)
            comm.compute(BLOCK_HALO_PACK, halo_cells)
            for peer, nbytes, tag in messages:
                comm.send(peer, nbytes, tag=tag)
            for peer, nbytes, tag in messages:
                comm.recv(peer, nbytes, tag=tag)
            comm.compute(BLOCK_RESIDUAL, n_cells)
            comm.allreduce(8)

    def equivalence_classes(self, n_ranks: int) -> List[List[int]]:
        return self.decomposition(n_ranks).equivalence_classes()
