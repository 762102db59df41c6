"""The communicator object rank scripts program against.

API shape follows mpi4py's lowercase conventions (``send``/``recv``/
``allreduce``/...) so that app proxies read like the MPI codes they stand
in for, with one addition: :meth:`SimComm.compute` marks a computation
phase (``iterations`` of a named basic block) — the "work done on the
processor in between communication events" the PMaC computation model
covers (§III).

Each call appends one int64 row (kind, arg, size, tag; see
:mod:`repro.simmpi.events`) to a growable buffer; no event object is
created.  Rank ranges and self-sends are checked at the call; sizes are
checked for the whole job when it is assembled
(:class:`~repro.simmpi.runtime.Job`).
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Union

import numpy as np

from repro.simmpi.events import (
    COLLECTIVE,
    COLLECTIVE_OPS,
    COMPUTE,
    RECV,
    SEND,
    Event,
    decode_rows,
)

_OP = {op: i for i, op in enumerate(COLLECTIVE_OPS)}


def peer_error(kind: int, peer: int, rank: int, size: int) -> Optional[str]:
    """Why ``rank`` may not send to (or receive from) ``peer``, if it may not."""
    if not 0 <= peer < size:
        what = "send dest" if kind == SEND else "recv src"
        return f"{what} {peer} out of range (size {size})"
    if peer == rank:
        return "self-sends are not modeled" if kind == SEND else "self-receives are not modeled"
    return None


#: one integer, or one integer per rank (:class:`~repro.simmpi.runtime.AllRanksComm`)
Ints = Union[int, np.ndarray]


class CommBase:
    """The mpi4py-style calls every communicator shares, built on each
    subclass's ``_p2p`` (checks and records one point-to-point call) and
    ``_record`` (records one row)."""

    # -- point-to-point ---------------------------------------------------

    def send(self, dest: Ints, nbytes: Ints, tag: Ints = 0) -> None:
        self._p2p(SEND, dest, nbytes, tag)

    def recv(self, src: Ints, nbytes: Ints, tag: Ints = 0) -> None:
        self._p2p(RECV, src, nbytes, tag)

    def sendrecv(
        self, dest: Ints, send_bytes: Ints, src: Ints, recv_bytes: Ints, tag: Ints = 0
    ) -> None:
        """Combined exchange, posted send-first (deadlock-free pairwise)."""
        self.send(dest, send_bytes, tag=tag)
        self.recv(src, recv_bytes, tag=tag)

    # -- collectives ------------------------------------------------------

    def _collective(self, op: str, nbytes: Ints) -> None:
        self._record(COLLECTIVE, _OP[op], nbytes, 0)

    def barrier(self) -> None:
        self._collective("barrier", 0)

    def allreduce(self, nbytes: Ints) -> None:
        self._collective("allreduce", nbytes)

    def reduce(self, nbytes: Ints) -> None:
        self._collective("reduce", nbytes)

    def broadcast(self, nbytes: Ints) -> None:
        self._collective("broadcast", nbytes)

    def alltoall(self, nbytes_per_rank: Ints) -> None:
        self._collective("alltoall", nbytes_per_rank)

    def allgather(self, nbytes_per_rank: Ints) -> None:
        self._collective("allgather", nbytes_per_rank)


class SimComm(CommBase):
    """Event-recording communicator for one rank.

    Parameters
    ----------
    rank, size:
        This process's rank and the communicator size.
    """

    def __init__(self, rank: int, size: int):
        if size <= 0:
            raise ValueError(f"communicator size must be positive, got {size}")
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size
        #: the recorded rows, flattened: kind, arg, size, tag per event
        self.rows = array("q")

    @property
    def events(self) -> List[Event]:
        """The recorded events, decoded (a copy: recording is by rows)."""
        return decode_rows(np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 4))

    def _record(self, kind: int, arg: int, size: int, tag: int) -> None:
        self.rows.extend((kind, arg, size, tag))

    # -- introspection (mpi4py-style) -----------------------------------

    def get_rank(self) -> int:
        return self.rank

    def get_size(self) -> int:
        return self.size

    # -- computation phases ---------------------------------------------

    def compute(self, block_id: int, iterations: int) -> None:
        """Record ``iterations`` executions of basic block ``block_id``."""
        if iterations > 0:
            self._record(COMPUTE, block_id, iterations, 0)

    def _p2p(self, kind: int, peer: int, nbytes: int, tag: int) -> None:
        message = peer_error(kind, peer, self.rank, self.size)
        if message:
            raise ValueError(message)
        self._record(kind, peer, nbytes, tag)
