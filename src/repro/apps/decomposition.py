"""3-D Cartesian domain decomposition.

Both proxies decompose a global structured grid over a 3-D process grid.
The decomposition determines everything that scales: local cell counts
(volume work), face areas (halo exchange sizes and boundary work), and
which ranks sit on the physical domain boundary (extra work, hence load
imbalance and a well-defined "most computationally demanding task").

A decomposition computes every rank's geometry at once, as the int64
columns of one :class:`GeometryTable`; :meth:`CartesianDecomposition.
geometry` reads one rank's row as Python ints, and the proxies' event
scripts and equivalence classes read whole columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.validation import check_positive

#: a rank's six face-neighbor slots, in sorted ``(dim, direction)`` order
SLOTS = ((0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1))


def factor3(p: int) -> Tuple[int, int, int]:
    """Factor ``p`` into three near-equal factors (largest first).

    The classic MPI_Dims_create-style balanced factorization: repeatedly
    peel the largest prime factor onto the currently-smallest dimension.
    """
    check_positive("p", p)
    dims = [1, 1, 1]
    remaining = p
    factors: List[int] = []
    d = 2
    while d * d <= remaining:
        while remaining % d == 0:
            factors.append(d)
            remaining //= d
        d += 1
    if remaining > 1:
        factors.append(remaining)
    for f in sorted(factors, reverse=True):
        dims.sort()
        dims[0] *= f
    dims.sort(reverse=True)
    return (dims[0], dims[1], dims[2])


def rank_row(columns: Dict[str, np.ndarray], rank: int) -> Dict[str, int]:
    """One rank's entries of per-rank columns, as Python ints."""
    n_ranks = len(next(iter(columns.values())))
    if not 0 <= rank < n_ranks:
        raise ValueError(f"rank {rank} out of range")
    return {key: int(column[rank]) for key, column in columns.items()}


@dataclass(frozen=True)
class RankGeometry:
    """One rank's share of the global grid."""

    rank: int
    coords: Tuple[int, int, int]
    local_cells: Tuple[int, int, int]
    #: face neighbors: (dim, direction) -> neighbor rank, absent at
    #: non-periodic physical boundaries
    neighbors: Dict[Tuple[int, int], int]
    #: number of faces on the physical domain boundary (0..6)
    boundary_faces: int

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.local_cells
        return nx * ny * nz

    def face_cells(self, dim: int) -> int:
        """Cells on a face perpendicular to ``dim``."""
        nx, ny, nz = self.local_cells
        if dim == 0:
            return ny * nz
        if dim == 1:
            return nx * nz
        if dim == 2:
            return nx * ny
        raise ValueError(f"dim must be 0..2, got {dim}")

    def halo_cells(self) -> int:
        """Total cells exchanged with all present neighbors."""
        return sum(self.face_cells(dim) for (dim, _d) in self.neighbors)

    def boundary_cells(self) -> int:
        """Cells on physical-boundary faces (extra-work surface)."""
        total = 0
        for dim in range(3):
            for direction in (-1, +1):
                if (dim, direction) not in self.neighbors:
                    total += self.face_cells(dim)
        return total


@dataclass(frozen=True)
class GeometryTable:
    """Every rank's geometry as read-only int64 columns; row ``r`` is rank ``r``."""

    #: process-grid coordinates, ``(n_ranks, 3)``
    coords: np.ndarray
    #: local extents, ``(n_ranks, 3)``
    local_cells: np.ndarray
    #: the face neighbor in each of :data:`SLOTS`, -1 where there is none
    #: (a non-periodic physical boundary, or a periodic dim of one rank)
    neighbors: np.ndarray
    #: cells on a face perpendicular to each dim, ``(n_ranks, 3)``
    face_cells: np.ndarray
    #: cells exchanged with all present neighbors
    halo_cells: np.ndarray
    #: cells on the faces without a neighbor (extra-work surface)
    boundary_cells: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    @property
    def n_cells(self) -> np.ndarray:
        return self.local_cells.prod(axis=1)


class CartesianDecomposition:
    """Decompose ``global_cells`` over ``n_ranks`` processes.

    Cells that do not divide evenly are distributed to the
    lowest-coordinate ranks (one extra layer each), producing the mild,
    realistic load imbalance that makes one task the slowest.

    Parameters
    ----------
    global_cells:
        Global grid dimensions (nx, ny, nz).
    n_ranks:
        Process count; factored into a 3-D grid automatically.
    periodic:
        Whether each dimension wraps (no physical boundary).
    """

    def __init__(
        self,
        global_cells: Tuple[int, int, int],
        n_ranks: int,
        *,
        periodic: Tuple[bool, bool, bool] = (False, False, False),
    ):
        check_positive("n_ranks", n_ranks)
        for i, n in enumerate(global_cells):
            check_positive(f"global_cells[{i}]", n)
        self.global_cells = tuple(int(c) for c in global_cells)
        self.n_ranks = int(n_ranks)
        self.periodic = tuple(periodic)
        self.grid = factor3(self.n_ranks)
        for dim in range(3):
            if self.grid[dim] > self.global_cells[dim]:
                raise ValueError(
                    f"cannot split {self.global_cells[dim]} cells over "
                    f"{self.grid[dim]} ranks in dim {dim} (n_ranks={n_ranks})"
                )

    # ------------------------------------------------------------------

    def coords_of(self, rank: int) -> Tuple[int, int, int]:
        """Process-grid coordinates of a rank (x fastest)."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        px, py, _pz = self.grid
        return (rank % px, (rank // px) % py, rank // (px * py))

    def rank_of(self, coords: Tuple[int, int, int]) -> int:
        px, py, pz = self.grid
        x, y, z = coords
        return x + y * px + z * px * py

    @functools.cached_property
    def table(self) -> GeometryTable:
        """Every rank's geometry, computed once."""
        rank = np.arange(self.n_ranks, dtype=np.int64)
        grid = np.array(self.grid, dtype=np.int64)
        stride = np.array([1, grid[0], grid[0] * grid[1]])
        coords = rank[:, None] // stride % grid
        base, extra = np.divmod(np.array(self.global_cells, dtype=np.int64), grid)
        local = base + (coords < extra)
        neighbors = np.empty((self.n_ranks, len(SLOTS)), dtype=np.int64)
        for slot, (dim, direction) in enumerate(SLOTS):
            c = coords[:, dim] + direction
            if self.periodic[dim] and grid[dim] > 1:
                c %= grid[dim]
            inside = (c >= 0) & (c < grid[dim])
            neighbors[:, slot] = np.where(inside, rank + (c - coords[:, dim]) * stride[dim], -1)
        faces = local[:, [1, 0, 0]] * local[:, [2, 2, 1]]
        slot_faces = faces[:, [dim for dim, _direction in SLOTS]]
        present = neighbors >= 0
        return GeometryTable(
            coords=coords,
            local_cells=local,
            neighbors=neighbors,
            face_cells=faces,
            halo_cells=(slot_faces * present).sum(axis=1),
            boundary_cells=(slot_faces * ~present).sum(axis=1),
        )

    def geometry(self, rank: int) -> RankGeometry:
        """Full geometry of one rank (its row of :attr:`table`)."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        t = self.table
        neighbors = {
            slot: peer for slot, peer in zip(SLOTS, t.neighbors[rank].tolist()) if peer >= 0
        }
        return RankGeometry(
            rank=rank,
            coords=tuple(t.coords[rank].tolist()),
            local_cells=tuple(t.local_cells[rank].tolist()),
            neighbors=neighbors,
            boundary_faces=len(SLOTS) - len(neighbors),
        )

    def equivalence_classes(self, extra: Optional[np.ndarray] = None) -> List[List[int]]:
        """Group ranks whose geometry implies identical programs.

        The key is (local extents, halo cells, boundary cells), plus the
        per-rank ``extra`` column when given: proxies build their
        programs from exactly these quantities, so ranks in a class have
        identical programs by construction.  Each class lists its ranks
        in order, and classes are ordered by their first rank.
        """
        t = self.table
        keys = [t.local_cells, t.halo_cells[:, None], t.boundary_cells[:, None]]
        if extra is not None:
            keys.append(np.asarray(extra, dtype=np.int64)[:, None])
        _, first, inverse = np.unique(
            np.hstack(keys), axis=0, return_index=True, return_inverse=True
        )
        inverse = inverse.ravel()
        members = np.split(
            np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1]
        )
        return [members[c].tolist() for c in np.argsort(first)]
