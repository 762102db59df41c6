"""SPECFEM3D_GLOBE proxy: spectral-element seismic wave propagation.

Structure follows the real code's time loop (see Carrington et al.,
SC'08, ref [28] of the paper):

1. ``element_kernel`` — the dominant kernel: per spectral element, dense
   small-tensor contractions over the element's GLL points.  Element
   field data streams through blocked/reused tiles, while a
   constant-size scratch region (derivative matrices + element-local
   buffers) is re-swept every element: that scratch instruction's cache
   behavior is *insensitive to core count* — Table III's subject.
2. ``update_vectors`` — global displacement/velocity/acceleration vector
   updates, accessed through the ``ibool`` local-to-global indirection
   as in the real code: mostly-sequential but scattered, so hit rates
   respond *smoothly* as the per-rank arrays shrink 1/P.
3. ``assembly_gather`` — summing element contributions on shared points:
   indirect but clustered access over the global points array.
4. ``halo_pack`` — packing boundary points for neighbor exchange;
   surface work, scales like (1/P)^(2/3) per rank.
5. ``absorbing_boundary`` — extra work on physical-boundary ranks only:
   the source of load imbalance that defines the slowest task.
6. ``norm_stages`` — local combine stages of the stability-check
   reduction; one stage per tree level, so its dynamic counts grow
   ~log2(P): the naturally logarithmic element (Fig. 5's shape).

The default global mesh (96x96x96 elements) divides evenly over the
paper's core counts {96, 384, 1536, 6144}, so local element counts are
uniform and rank classes differ only by boundary role.
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
from repro.memstream.patterns import BlockedPattern, GatherScatterPattern, StridedPattern
from repro.simmpi.runtime import AllRanksComm

BLOCK_ELEMENT_KERNEL = 0
BLOCK_UPDATE_VECTORS = 1
BLOCK_ASSEMBLY = 2
BLOCK_HALO_PACK = 3
BLOCK_ABSORBING = 4
BLOCK_NORM_STAGES = 5

#: GLL points per element edge (NGLL=5 in SPECFEM3D_GLOBE).
_NGLL = 5
_POINTS_PER_ELEMENT = _NGLL ** 3  # 125
_POINTS_PER_FACE = _NGLL ** 2  # 25
#: bytes of field data per element (disp/veloc/accel x 3 comps + material)
_BYTES_PER_ELEMENT = _POINTS_PER_ELEMENT * 8 * 9
_BYTES_PER_POINT = 8 * 3
#: element-local scratch: hprime/hprimewgll derivative matrices plus
#: temporary tensors — constant size regardless of core count
_SCRATCH_BYTES = 16 * 1024


@dataclass(frozen=True)
class SpecFEMParams:
    """Workload parameters (defaults sized for 96..6144 ranks)."""

    global_elements: Tuple[int, int, int] = (96, 96, 96)
    n_steps: int = 4
    norm_buffer_points: int = 2048
    weak_elements_per_rank: Tuple[int, int, int] = (8, 8, 8)


class SpecFEM3DProxy(AppModel):
    """Strong-scaled spectral-element wave-propagation proxy."""

    name = "specfem3d"

    def __init__(
        self,
        params: SpecFEMParams = SpecFEMParams(),
        scaling: ScalingMode = ScalingMode.STRONG,
    ):
        self.params = params
        self.scaling = scaling

    @lru_cache(maxsize=32)
    def decomposition(self, n_ranks: int) -> CartesianDecomposition:
        if self.scaling is ScalingMode.STRONG:
            elements = self.params.global_elements
        else:
            grid = factor3(n_ranks)
            elements = tuple(
                e * g for e, g in zip(self.params.weak_elements_per_rank, grid)
            )
        return CartesianDecomposition(elements, n_ranks)

    # ------------------------------------------------------------------
    # per-step iteration counts of every rank (shared by program and script)

    def _counts(self, n_ranks: int) -> dict:
        geo = self.decomposition(n_ranks).table
        return {
            "elements": geo.n_cells,
            "points": geo.n_cells * _POINTS_PER_ELEMENT,
            "halo_points": geo.halo_cells * _POINTS_PER_FACE,
            "boundary_points": geo.boundary_cells * _POINTS_PER_FACE,
        }

    def _norm_iters(self, n_ranks: int) -> int:
        tree_depth = max(1, math.ceil(math.log2(max(n_ranks, 2))))
        return self.params.norm_buffer_points * tree_depth

    def rank_program(self, rank: int, n_ranks: int) -> Program:
        c = rank_row(self._counts(n_ranks), rank)
        c["norm_iters"] = self._norm_iters(n_ranks)
        steps = self.params.n_steps
        element_bytes = max(c["elements"] * _BYTES_PER_ELEMENT, 4096)
        vector_bytes = max(c["points"] * _BYTES_PER_POINT, 4096)
        halo_bytes = max(c["halo_points"] * 8, 512)
        boundary_bytes = max(c["boundary_points"] * 8, 512)
        norm_bytes = self.params.norm_buffer_points * 8
        return (
            ProgramBuilder(f"{self.name}-r{rank}-p{n_ranks}")
            # 1. dense element kernel: blocked reuse of element data
            .block(
                "compute_element_forces",
                file="compute_forces_crust_mantle.f90",
                line=210,
                block_id=BLOCK_ELEMENT_KERNEL,
            )
            .load(
                BlockedPattern(
                    region_bytes=element_bytes,
                    tile_elements=_BYTES_PER_ELEMENT // 8,
                    revisits=3,
                ),
                per_iteration=24,
            )
            .load(
                # constant-footprint scratch sweep (Table III's subject):
                # derivative matrices + element-local tensors
                StridedPattern(region_bytes=_SCRATCH_BYTES),
                per_iteration=320,
            )
            .store(
                BlockedPattern(
                    region_bytes=element_bytes,
                    tile_elements=_BYTES_PER_ELEMENT // 8,
                    revisits=1,
                ),
                per_iteration=8,
            )
            .fp(
                {"fp_fma": 340, "fp_add": 120, "fp_mul": 90},
                ilp=3.2,
                dep_chain=4.0,
            )
            .executes(c["elements"] * steps)
            .done()
            # 2. global vector updates through the ibool indirection:
            # mostly-sequential gather/scatter over the shrinking arrays
            .block(
                "update_displacement",
                file="update_displacement_scheme.f90",
                line=88,
                block_id=BLOCK_UPDATE_VECTORS,
            )
            .load(
                GatherScatterPattern(
                    region_bytes=vector_bytes, locality=0.9, cluster_elements=125
                ),
                per_iteration=3,
            )
            .store(
                GatherScatterPattern(
                    region_bytes=vector_bytes, locality=0.9, cluster_elements=125
                ),
                per_iteration=2,
            )
            .fp({"fp_fma": 3, "fp_mul": 1}, ilp=3.5, dep_chain=2.0)
            .executes(c["points"] * steps)
            .done()
            # 3. assembly on shared points: clustered indirect access
            .block(
                "assemble_boundary",
                file="assemble_MPI_vector.f90",
                line=131,
                block_id=BLOCK_ASSEMBLY,
            )
            .load(
                GatherScatterPattern(
                    region_bytes=vector_bytes,
                    locality=0.85,
                    cluster_elements=_POINTS_PER_FACE,
                ),
                per_iteration=2,
            )
            .store(
                GatherScatterPattern(
                    region_bytes=vector_bytes,
                    locality=0.85,
                    cluster_elements=_POINTS_PER_FACE,
                ),
            )
            .fp({"fp_add": 3}, ilp=2.0, dep_chain=2.0)
            .executes(max(c["halo_points"], 1) * steps)
            .done()
            # 4. halo pack/unpack: strided copies into comm buffers
            .block(
                "halo_pack",
                file="assemble_MPI_vector.f90",
                line=203,
                block_id=BLOCK_HALO_PACK,
            )
            .load(
                # boundary points are scattered through the global array
                GatherScatterPattern(
                    region_bytes=vector_bytes,
                    locality=0.75,
                    cluster_elements=_POINTS_PER_FACE,
                ),
            )
            .store(StridedPattern(region_bytes=halo_bytes))
            .executes(max(c["halo_points"], 1) * steps)
            .done()
            # 5. absorbing boundary (Stacey): physical-boundary ranks only
            .block(
                "absorbing_boundary",
                file="compute_stacey_crust_mantle.f90",
                line=59,
                block_id=BLOCK_ABSORBING,
            )
            .load(
                GatherScatterPattern(
                    region_bytes=boundary_bytes,
                    locality=0.7,
                    cluster_elements=_POINTS_PER_FACE,
                ),
                per_iteration=4,
            )
            .store(StridedPattern(region_bytes=boundary_bytes), per_iteration=2)
            .fp({"fp_fma": 9, "fp_mul": 6}, ilp=2.5, dep_chain=3.0)
            .executes(c["boundary_points"] * steps)
            .done()
            # 6. norm-check combine stages: one per reduction tree level
            .block(
                "norm_stages",
                file="check_stability.f90",
                line=41,
                block_id=BLOCK_NORM_STAGES,
            )
            .load(StridedPattern(region_bytes=norm_bytes), per_iteration=2)
            .store(StridedPattern(region_bytes=norm_bytes))
            .fp({"fp_add": 1, "fp_mul": 1}, ilp=4.0, dep_chain=1.5)
            .executes(c["norm_iters"] * steps)
            .done()
            .build()
        )

    def rank_script(self, comm: AllRanksComm) -> None:
        c = self._counts(comm.size)
        geo = self.decomposition(comm.size).table
        messages = [
            (geo.neighbors[:, slot], geo.face_cells[:, dim] * _POINTS_PER_FACE * 8, dim)
            for slot, (dim, _direction) in enumerate(SLOTS)
        ]
        for _step in range(self.params.n_steps):
            comm.compute(BLOCK_ELEMENT_KERNEL, c["elements"])
            comm.compute(BLOCK_UPDATE_VECTORS, c["points"])
            comm.compute(BLOCK_ABSORBING, c["boundary_points"])
            comm.compute(BLOCK_HALO_PACK, np.maximum(c["halo_points"], 1))
            for peer, nbytes, tag in messages:
                comm.send(peer, nbytes, tag=tag)
            for peer, nbytes, tag in messages:
                comm.recv(peer, nbytes, tag=tag)
            comm.compute(BLOCK_ASSEMBLY, np.maximum(c["halo_points"], 1))
            comm.compute(BLOCK_NORM_STAGES, self._norm_iters(comm.size))
            comm.allreduce(8)

    def equivalence_classes(self, n_ranks: int) -> List[List[int]]:
        return self.decomposition(n_ranks).equivalence_classes()
