"""Event types recorded by SimMPI rank scripts, and their int64 rows.

A job stores each event as one row of four int64 columns (see
:class:`~repro.simmpi.runtime.Job`):

========== ========== ===================== =========
kind       arg        size                  tag
========== ========== ===================== =========
COMPUTE    block id   iterations            0
SEND       dest       nbytes                tag
RECV       src        nbytes                tag
COLLECTIVE op index   nbytes (per rank)     0
========== ========== ===================== =========

The event objects below are the readable form of a row: the §VI
consumers (:mod:`repro.commextrap`, :mod:`repro.energy`), hand-built
scripts and the Python replay oracle use them, and :func:`encode` /
:func:`decode_rows` convert between the two.  All events are immutable
value objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from repro.util.validation import check_in_range

#: Collective operations the replay network model knows how to cost.
COLLECTIVE_OPS = (
    "barrier",
    "allreduce",
    "reduce",
    "broadcast",
    "alltoall",
    "allgather",
)


@dataclass(frozen=True)
class ComputeEvent:
    """A computation phase: ``iterations`` executions of one basic block.

    The block id refers to the rank's :class:`~repro.instrument.program.
    Program`; the replay engine converts iterations to seconds using a
    per-iteration block cost calibrated from a trace file.
    """

    block_id: int
    iterations: int

    def __post_init__(self):
        check_in_range("iterations", self.iterations, low=0)


@dataclass(frozen=True)
class SendEvent:
    """Post a point-to-point message (buffered, non-blocking completion)."""

    dest: int
    nbytes: int
    tag: int = 0

    def __post_init__(self):
        check_in_range("dest", self.dest, low=0)
        check_in_range("nbytes", self.nbytes, low=0)


@dataclass(frozen=True)
class RecvEvent:
    """Blocking receive of a matching message."""

    src: int
    nbytes: int
    tag: int = 0

    def __post_init__(self):
        check_in_range("src", self.src, low=0)
        check_in_range("nbytes", self.nbytes, low=0)


@dataclass(frozen=True)
class CollectiveEvent:
    """A collective over the whole communicator.

    ``nbytes`` is the per-rank payload (the cost model knows each
    collective's communication pattern).
    """

    op: str
    nbytes: int = 0

    def __post_init__(self):
        if self.op not in COLLECTIVE_OPS:
            raise ValueError(
                f"unknown collective {self.op!r}; known: {', '.join(COLLECTIVE_OPS)}"
            )
        check_in_range("nbytes", self.nbytes, low=0)


def BarrierEvent() -> CollectiveEvent:
    """Convenience constructor for a barrier."""
    return CollectiveEvent(op="barrier", nbytes=0)


Event = Union[ComputeEvent, SendEvent, RecvEvent, CollectiveEvent]


#: row kinds (column 0 of a job's event table)
COMPUTE, SEND, RECV, COLLECTIVE = range(4)
KIND_NAMES = tuple(
    cls.__name__ for cls in (ComputeEvent, SendEvent, RecvEvent, CollectiveEvent)
)


def encode(ev: Event) -> Tuple[int, int, int, int]:
    """One event's row: ``(kind, arg, size, tag)``."""
    if isinstance(ev, ComputeEvent):
        return (COMPUTE, ev.block_id, ev.iterations, 0)
    if isinstance(ev, SendEvent):
        return (SEND, ev.dest, ev.nbytes, ev.tag)
    if isinstance(ev, RecvEvent):
        return (RECV, ev.src, ev.nbytes, ev.tag)
    if isinstance(ev, CollectiveEvent):
        return (COLLECTIVE, COLLECTIVE_OPS.index(ev.op), ev.nbytes, 0)
    raise TypeError(f"unknown event type {type(ev)!r}")


def decode_rows(rows: np.ndarray) -> List[Event]:
    """The events of an ``(n, 4)`` row table, in order."""
    events: List[Event] = []
    for kind, arg, size, tag in rows.tolist():
        if kind == COMPUTE:
            events.append(ComputeEvent(block_id=arg, iterations=size))
        elif kind == SEND:
            events.append(SendEvent(dest=arg, nbytes=size, tag=tag))
        elif kind == RECV:
            events.append(RecvEvent(src=arg, nbytes=size, tag=tag))
        else:
            events.append(CollectiveEvent(op=COLLECTIVE_OPS[arg], nbytes=size))
    return events
