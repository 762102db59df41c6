"""SimMPI: a deterministic simulated MPI runtime.

The paper's pipeline needs per-rank *event traces* (computation phases
separated by communication events) and a lightweight profiling pass that
identifies the most computationally demanding MPI task (the
PSiNSTracer-based step of §IV).  Real MPI runs at 96–8192 ranks are not
available here, so SimMPI executes per-rank script functions written
against an mpi4py-like API and records their communication/computation
events; the PSiNS replay engine (:mod:`repro.psins.replay`) later assigns
times to those events.

Apps are SPMD and deterministic, so no actual concurrency is needed to
reconstruct each rank's event sequence: a hand-written rank function is
executed one rank at a time (:func:`run_job`), and an app proxy's script
runs once for every rank together, on per-rank arrays
(:class:`AllRanksComm`).

A :class:`Job` stores the events as one ``(n_events, 4)`` int64 table
(kind, arg, size, tag) with per-rank offsets; recording, verification,
profiling and replay all work on that table.  ``Job.scripts`` and
``SimComm.events`` decode it into the event objects of
:mod:`repro.simmpi.events` for the §VI consumers (communication
extrapolation, energy) and for hand-built scripts.
"""

from repro.simmpi.events import (
    BarrierEvent,
    CollectiveEvent,
    ComputeEvent,
    Event,
    RecvEvent,
    SendEvent,
)
from repro.simmpi.comm import SimComm
from repro.simmpi.runtime import AllRanksComm, Job, RankScript, run_job, verify_job
from repro.simmpi.profiler import LightweightProfile, profile_job

__all__ = [
    "Event",
    "ComputeEvent",
    "SendEvent",
    "RecvEvent",
    "CollectiveEvent",
    "BarrierEvent",
    "SimComm",
    "AllRanksComm",
    "RankScript",
    "Job",
    "run_job",
    "verify_job",
    "LightweightProfile",
    "profile_job",
]
