"""SimMPI job construction and static verification.

``run_job`` executes a rank function once per rank and assembles every
rank's recorded rows into one :class:`Job`: an ``(n_events, 4)`` int64
event table (kind, arg, size, tag; see :mod:`repro.simmpi.events`) plus
per-rank offsets.  :class:`AllRanksComm` records every rank of an SPMD
script in one pass instead: the same methods, with one value for every
rank or an array of per-rank values as each argument.

``verify_job`` statically checks communication consistency with numpy
— every send matched by a receive, collectives issued in the same
order everywhere — which is also what keeps the replay deadlock-free.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.simmpi.comm import CommBase, Ints, SimComm, peer_error
from repro.simmpi.events import (
    COLLECTIVE,
    COLLECTIVE_OPS,
    COMPUTE,
    RECV,
    SEND,
    ComputeEvent,
    decode_rows,
    encode,
)
from repro.util.validation import check_in_range


@dataclass
class RankScript:
    """One rank's event sequence: hand-built, or decoded from a job."""

    rank: int
    events: List = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return len(self.events)

    def compute_events(self) -> List[ComputeEvent]:
        return [e for e in self.events if isinstance(e, ComputeEvent)]


def _check_rows(rows: np.ndarray) -> None:
    """The checks event construction makes, over a whole table at once."""
    kind, arg, size = rows[:, 0], rows[:, 1], rows[:, 2]
    bad = np.flatnonzero(size < 0)
    if bad.size:
        i = bad[0]
        name = "iterations" if kind[i] == COMPUTE else "nbytes"
        check_in_range(name, int(size[i]), low=0)
    p2p = (kind == SEND) | (kind == RECV)
    coll = kind == COLLECTIVE
    bad = np.flatnonzero(
        (kind < COMPUTE) | (kind > COLLECTIVE) | (p2p & (arg < 0))
        | (coll & ((arg < 0) | (arg >= len(COLLECTIVE_OPS))))
    )
    if bad.size:
        raise ValueError(f"malformed event row {bad[0]}: {rows[bad[0]].tolist()}")


class Job:
    """A complete simulated MPI job at one core count, as event rows.

    Rank ``r``'s events are ``rows[offsets[r]:offsets[r + 1]]``, one
    int64 row (kind, arg, size, tag) each; the table is read-only.
    :attr:`scripts` and :meth:`script` decode it into event objects.

    Parameters
    ----------
    app:
        Application name.
    n_ranks:
        Core count.
    scripts:
        Per-rank event scripts (index == rank), packed into rows once;
        :meth:`from_rows` builds a job from rows directly.
    """

    def __init__(self, app: str, n_ranks: int, scripts: Sequence[RankScript]):
        if len(scripts) != n_ranks:
            raise ValueError(f"expected {n_ranks} scripts, got {len(scripts)}")
        for i, script in enumerate(scripts):
            if script.rank != i:
                raise ValueError(f"script {i} has rank {script.rank}")
        rows = np.array(
            [encode(ev) for script in scripts for ev in script.events],
            dtype=np.int64,
        ).reshape(-1, 4)
        offsets = np.cumsum([0] + [len(s.events) for s in scripts])
        self._assemble(app, n_ranks, rows, offsets)

    @classmethod
    def from_rows(
        cls, app: str, n_ranks: int, rows: np.ndarray, offsets: np.ndarray
    ) -> "Job":
        """A job over an ``(n_events, 4)`` int64 table and its offsets
        (kept, and made read-only, when already contiguous int64)."""
        job = cls.__new__(cls)
        job._assemble(app, n_ranks, rows, offsets)
        return job

    def _assemble(self, app, n_ranks, rows, offsets) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 4)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if len(offsets) != n_ranks + 1 or offsets[0] != 0 \
                or offsets[-1] != len(rows) or np.any(np.diff(offsets) < 0):
            raise ValueError(
                f"offsets do not split {len(rows)} rows over {n_ranks} ranks"
            )
        _check_rows(rows)
        rows.flags.writeable = False
        offsets.flags.writeable = False
        self.app = app
        self.n_ranks = n_ranks
        self.rows = rows
        self.offsets = offsets

    def __repr__(self) -> str:
        return (f"Job(app={self.app!r}, n_ranks={self.n_ranks}, "
                f"n_events={self.n_events})")

    @property
    def n_events(self) -> int:
        return len(self.rows)

    @property
    def scripts(self) -> List[RankScript]:
        """Every rank's script, decoded (a copy)."""
        return [self.script(rank) for rank in range(self.n_ranks)]

    def script(self, rank: int) -> RankScript:
        """One rank's script, decoded (a copy)."""
        rank = range(self.n_ranks)[rank]
        lo, hi = self.offsets[rank], self.offsets[rank + 1]
        return RankScript(rank=rank, events=decode_rows(self.rows[lo:hi]))

    def compute_costs(
        self, group_of_rank: np.ndarray, price: Callable[[int, int], float]
    ) -> np.ndarray:
        """``price(group, block) * iterations`` of every compute row, in order.

        Ranks of one group share per-iteration block costs, so ``price``
        is called once per distinct ``(group, block)`` pair of the compute
        rows, and never for a block a group does not execute.
        """
        compute = self.rows[:, 0] == COMPUTE
        rows = self.rows[compute]
        blocks, block_index = np.unique(rows[:, 1], return_inverse=True)
        pairs, pair_of_row = np.unique(
            group_of_rank[self.row_ranks[compute]] * len(blocks) + block_index,
            return_inverse=True,
        )
        cost = np.array(
            [price(int(p // len(blocks)), int(blocks[p % len(blocks)])) for p in pairs],
            dtype=np.float64,
        )
        return cost[pair_of_row] * rows[:, 2]

    @functools.cached_property
    def row_ranks(self) -> np.ndarray:
        """The rank of every row."""
        return np.repeat(
            np.arange(self.n_ranks, dtype=np.int64), np.diff(self.offsets)
        )

    @functools.cached_property
    def channels(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(chan, keys)``: the channel id of every row (-1 off send and
        recv rows) and the ``(src, dest, tag)`` of each channel."""
        kind, peer, tag = self.rows[:, 0], self.rows[:, 1], self.rows[:, 3]
        p2p = np.flatnonzero((kind == SEND) | (kind == RECV))
        me, other = self.row_ranks[p2p], peer[p2p]
        send = kind[p2p] == SEND
        src, dest = np.where(send, me, other), np.where(send, other, me)
        tags, tag_index = np.unique(tag[p2p], return_inverse=True)
        radix = max(self.n_ranks, int(other.max()) + 1 if other.size else 0)
        if radix * radix * max(len(tags), 1) >= 1 << 62:
            raise ValueError("peer ranks or tags too many to pack into channels")
        packed, chan_of = np.unique(
            (src * radix + dest) * len(tags) + tag_index, return_inverse=True
        )
        chan = np.full(len(kind), -1, dtype=np.int64)
        chan[p2p] = chan_of
        pair, tag_of = np.divmod(packed, max(len(tags), 1))
        keys = np.stack([pair // radix, pair % radix, tags[tag_of]], axis=1)
        return chan, keys


def run_job(
    app: str, n_ranks: int, rank_fn: Callable[[SimComm], None]
) -> Job:
    """Execute ``rank_fn`` for every rank; assemble the job's rows.

    ``rank_fn`` receives a :class:`~repro.simmpi.comm.SimComm` and must
    be deterministic in ``(comm.rank, comm.size)`` — the SPMD contract.
    """
    rows, offsets = array("q"), [0]
    for rank in range(n_ranks):
        comm = SimComm(rank, n_ranks)
        rank_fn(comm)
        rows.extend(comm.rows)
        offsets.append(len(rows) // 4)
    table = np.frombuffer(rows, dtype=np.int64) if rows else np.empty(0, np.int64)
    return Job.from_rows(app, n_ranks, table.reshape(-1, 4), offsets)


#: one int64 event row, as a single numpy item
_ROW_ITEM = np.dtype((np.void, 32))


class AllRanksComm(CommBase):
    """Event recorder for every rank of an SPMD script at once.

    Its methods are :class:`SimComm`'s.  Each argument is a scalar (the
    same for every rank) or an array with one value per rank; a peer of
    -1 or an iteration count <= 0 records nothing for that rank.  Each
    call records at most one row per rank, and :meth:`job` lays them out
    rank-major, so rank ``r``'s rows are its calls in call order, as
    :func:`run_job` would record them.

    Parameters
    ----------
    size:
        The communicator size.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"communicator size must be positive, got {size}")
        self.size = size
        #: every rank, as the array the per-rank arguments line up with
        self.rank = np.arange(size, dtype=np.int64)
        #: one ``(kind, arg, size, tag, keep)`` per call; ``keep`` is a
        #: per-rank mask, or None when every rank records the call
        self._calls: list = []

    def _column(self, value: Ints) -> np.ndarray:
        column = np.asarray(value)
        if column.dtype.kind not in "iu" or column.shape not in ((), (self.size,)):
            raise ValueError(
                f"expected an integer or {self.size} per-rank integers, "
                f"got {column.dtype} of shape {column.shape}"
            )
        return column

    def _record(self, kind: int, arg: Ints, size: Ints, tag: Ints, keep=None) -> None:
        self._calls.append((kind, arg, self._column(size), self._column(tag), keep))

    # -- computation phases ---------------------------------------------

    def compute(self, block_id: int, iterations: Ints) -> None:
        """Record ``iterations`` executions of ``block_id`` on each rank."""
        iterations = self._column(iterations)
        keep = np.broadcast_to(iterations > 0, (self.size,))
        if keep.any():
            self._record(COMPUTE, block_id, iterations, 0, None if keep.all() else keep)

    # -- point-to-point ---------------------------------------------------

    def _p2p(self, kind: int, peer: Ints, nbytes: Ints, tag: Ints) -> None:
        peer = np.broadcast_to(self._column(peer), (self.size,))
        bad = np.flatnonzero((peer < -1) | (peer >= self.size) | (peer == self.rank))
        if bad.size:
            rank = int(bad[0])
            raise ValueError(
                f"rank {rank}: {peer_error(kind, int(peer[rank]), rank, self.size)}"
            )
        keep = peer >= 0
        if keep.any():
            self._record(kind, peer, nbytes, tag, None if keep.all() else keep)

    # -- assembly ---------------------------------------------------------

    def job(self, app: str) -> Job:
        """Every rank's recorded rows, as one job."""
        counts = np.zeros(self.size, dtype=np.int64)
        for *_, keep in self._calls:
            counts += 1 if keep is None else keep
        offsets = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        rows = np.empty((offsets[-1], 4), dtype=np.int64)
        # each call writes its ranks' rows at their cursors, moving each
        # row as one 32-byte item (numpy's fastest scatter)
        items = rows.view(_ROW_ITEM).ravel()
        cursor = offsets[:-1].copy()
        call = np.empty((self.size, 4), dtype=np.int64)
        for kind, arg, size, tag, keep in self._calls:
            call[:, 0], call[:, 1], call[:, 2], call[:, 3] = kind, arg, size, tag
            if keep is None:
                items[cursor] = call.view(_ROW_ITEM).ravel()
                cursor += 1
            else:
                items[cursor[keep]] = call.view(_ROW_ITEM).ravel()[keep]
                cursor += keep
        return Job.from_rows(app, self.size, rows, offsets)


class JobVerificationError(ValueError):
    """Raised when a job's communication structure is inconsistent."""


def verify_job(job: Job) -> None:
    """Statically check the job's communication consistency.

    - every ``(src, dest, tag)`` send count equals the matching receive
      count;
    - every rank issues the same sequence of collectives (op and size).

    Raises :class:`JobVerificationError` with a diagnostic on failure;
    of several unmatched channels it names the one whose first event
    comes first in rank order.
    """
    kind = job.rows[:, 0]
    chan, keys = job.channels
    counts = {
        k: np.bincount(chan[kind == k], minlength=len(keys)) for k in (SEND, RECV)
    }
    for k, other, label in ((SEND, RECV, "send"), (RECV, SEND, "recv")):
        excess = counts[k] - counts[other]
        rows = np.flatnonzero(kind == k)
        unmatched = rows[excess[chan[rows]] > 0]
        if unmatched.size:
            c = chan[unmatched[0]]
            key = tuple(int(v) for v in keys[c])
            raise JobVerificationError(
                f"{job.app}: {int(excess[c])} unmatched {label}(s) on "
                f"(src, dest, tag)={key}"
            )

    if job.n_ranks == 0:
        return
    coll = np.flatnonzero(kind == COLLECTIVE)
    ranks = job.row_ranks[coll]
    n_colls = np.bincount(ranks, minlength=job.n_ranks)
    first = n_colls[0]
    # each collective's position in its rank's sequence, against rank 0's
    position = np.arange(len(coll)) - np.searchsorted(ranks, ranks)
    comparable = n_colls[ranks] == first
    spec = job.rows[coll][:, 1:3]
    reference = spec[:first]
    differs = n_colls != first
    mismatched = comparable.copy()
    mismatched[comparable] = np.any(
        spec[comparable] != reference[position[comparable]], axis=1
    )
    differs[ranks[mismatched]] = True
    bad = np.flatnonzero(differs[1:])
    if bad.size:
        rank = int(bad[0]) + 1
        raise JobVerificationError(
            f"{job.app}: rank {rank} collective sequence differs from rank 0 "
            f"({int(n_colls[rank])} vs {int(first)} collectives or mismatched ops)"
        )
