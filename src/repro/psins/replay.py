"""Event-trace replay: "replays the entire execution of the HPC
application on the target/predicted system" (§III).

A cooperative discrete-event scheduler advances per-rank virtual clocks
through each rank's event script:

- **compute** events take time from a :class:`ComputationTimer`;
- **sends** are buffered: the sender pays only a posting overhead and the
  message becomes available at that moment;
- **recvs** block until the matching ``(src, dest, tag)`` message is
  available, then pay the network transfer time;
- **collectives** synchronize all ranks; completion is the latest arrival
  plus the collective's cost model.

The scheduler is work-queue driven (a rank is revisited only when
something it waits for happens), so replay is O(events) not
O(events x ranks).

:func:`replay_job` runs it as one C function over the job's event rows
(:mod:`repro.psins.native`).  Python first prices every row with the
functions below — each compute row from its timer, once per distinct
``(cost function, block)``; each recv row with ``p2p_time_s``, once per
distinct size; each collective row with its cost model, once per
distinct ``(op, nbytes)`` — so the kernel only adds and compares.
:class:`ReplayEngine` is the same scheduler over event objects: the
kernel's test oracle, and the replay when no C compiler is present.
Both give bit-identical results (:class:`ReplayResult`) and raise the
same errors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

import numpy as np

from repro.machine.network import NetworkParameters
from repro.obs.trace import span
from repro.psins import native
from repro.simmpi.events import (
    COLLECTIVE,
    COLLECTIVE_OPS,
    COMPUTE,
    KIND_NAMES,
    RECV,
    SEND,
    CollectiveEvent,
    ComputeEvent,
    RecvEvent,
    SendEvent,
)
from repro.simmpi.runtime import Job
from repro.util.native import load


class ComputationTimer:
    """Maps (rank, block, iterations) to seconds.  Subclass or wrap."""

    def time_s(self, rank: int, block_id: int, iterations: int) -> float:
        raise NotImplementedError


class UniformTimer(ComputationTimer):
    """Every rank uses the same per-iteration block costs.

    This is the slowest-task-as-base strategy the paper uses (§VI): the
    traced (or extrapolated) task's per-iteration costs apply to every
    rank; per-rank workload differences enter via each rank's own
    iteration counts in its event script.
    """

    def __init__(self, iteration_time_s: Callable[[int], float]):
        self._iteration_time_s = iteration_time_s

    def time_s(self, rank: int, block_id: int, iterations: int) -> float:
        return self._iteration_time_s(block_id) * iterations


class PerRankTimer(ComputationTimer):
    """Per-rank (or per-equivalence-class) block costs."""

    def __init__(self, timers: Dict[int, Callable[[int], float]]):
        self._timers = timers

    def time_s(self, rank: int, block_id: int, iterations: int) -> float:
        try:
            fn = self._timers[rank]
        except KeyError:
            raise KeyError(f"no computation timer for rank {rank}") from None
        return fn(block_id) * iterations


class ReplayDeadlockError(RuntimeError):
    """Raised when no rank can make progress before completion."""


@dataclass
class ReplayResult:
    """Outcome of one replay."""

    app: str
    n_ranks: int
    runtime_s: float
    compute_time_s: np.ndarray
    comm_time_s: np.ndarray
    n_events: int

    @property
    def max_compute_s(self) -> float:
        return float(self.compute_time_s.max()) if self.compute_time_s.size else 0.0

    def comm_fraction(self) -> float:
        """Communication share of the critical path's rank."""
        critical = int(np.argmax(self.compute_time_s + self.comm_time_s))
        total = self.compute_time_s[critical] + self.comm_time_s[critical]
        return float(self.comm_time_s[critical] / total) if total > 0 else 0.0


_COLLECTIVE_COST = {
    "barrier": lambda net, p, b: net.barrier_time_s(p),
    "allreduce": lambda net, p, b: net.allreduce_time_s(p, b),
    "reduce": lambda net, p, b: net.reduce_time_s(p, b),
    "broadcast": lambda net, p, b: net.broadcast_time_s(p, b),
    "alltoall": lambda net, p, b: net.alltoall_time_s(p, b),
    "allgather": lambda net, p, b: net.allgather_time_s(p, b),
}


class ReplayEngine:
    """One replay's scheduler state, inspectable after :meth:`run`.

    The Python form of the native kernel's scheduler, over the job's
    decoded event objects: its oracle, and the no-compiler fallback.

    All transient bookkeeping lives in plain dicts whose entries are
    removed as soon as they drain — a matched send deletes its emptied
    mailbox slot, a satisfied recv its waiter queue, a completed
    collective both its arrival map and its spec.  On a clean replay
    every one of ``mailbox``, ``recv_waiters``, ``coll_arrivals``, and
    ``coll_spec`` ends empty (unmatched sends legitimately leave mailbox
    residue), so long replays don't accumulate dead entries and tests
    can assert the bookkeeping drained.
    """

    def __init__(
        self,
        job: Job,
        timer: ComputationTimer,
        network: NetworkParameters,
    ):
        self.job = job
        self.timer = timer
        self.network = network
        n = job.n_ranks
        self.scripts = [s.events for s in job.scripts]
        self.pc = [0] * n
        self.clock = np.zeros(n)
        self.compute_time = np.zeros(n)
        self.comm_time = np.zeros(n)
        #: (src, dest, tag) -> deque of (available_time, nbytes)
        self.mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, int]]] = {}
        #: ranks blocked on a recv key
        self.recv_waiters: Dict[Tuple[int, int, int], Deque[int]] = {}
        #: collective synchronization: per-index arrivals and spec
        self.coll_index = [0] * n
        self.coll_arrivals: Dict[int, Dict[int, float]] = {}
        self.coll_spec: Dict[int, Tuple[str, int]] = {}

    def run(self) -> ReplayResult:
        job, timer, network = self.job, self.timer, self.network
        n = job.n_ranks
        scripts = self.scripts
        pc = self.pc
        clock = self.clock
        compute_time = self.compute_time
        comm_time = self.comm_time
        mailbox = self.mailbox
        recv_waiters = self.recv_waiters
        coll_index = self.coll_index
        coll_arrivals = self.coll_arrivals
        coll_spec = self.coll_spec

        runnable: Deque[int] = deque(range(n))
        queued = [True] * n
        done_count = 0
        n_events = sum(len(s) for s in scripts)
        send_overhead = network.send_overhead_us * 1e-6

        def wake(rank: int) -> None:
            if not queued[rank]:
                queued[rank] = True
                runnable.append(rank)

        while runnable:
            r = runnable.popleft()
            queued[r] = False
            script = scripts[r]
            while pc[r] < len(script):
                ev = script[pc[r]]
                if isinstance(ev, ComputeEvent):
                    dt = timer.time_s(r, ev.block_id, ev.iterations)
                    clock[r] += dt
                    compute_time[r] += dt
                    pc[r] += 1
                elif isinstance(ev, SendEvent):
                    key = (r, ev.dest, ev.tag)
                    clock[r] += send_overhead
                    comm_time[r] += send_overhead
                    mailbox.setdefault(key, deque()).append(
                        (clock[r], ev.nbytes)
                    )
                    pc[r] += 1
                    waiters = recv_waiters.get(key)
                    if waiters:
                        wake(waiters.popleft())
                        if not waiters:
                            del recv_waiters[key]
                elif isinstance(ev, RecvEvent):
                    key = (ev.src, r, ev.tag)
                    box = mailbox.get(key)
                    if not box:
                        recv_waiters.setdefault(key, deque()).append(r)
                        break
                    avail, nbytes = box.popleft()
                    if not box:
                        del mailbox[key]
                    if nbytes != ev.nbytes:
                        raise ValueError(
                            f"message size mismatch on {key}: sent {nbytes}, "
                            f"receiving {ev.nbytes}"
                        )
                    start = clock[r]
                    finish = max(start, avail) + network.p2p_time_s(nbytes)
                    comm_time[r] += finish - start
                    clock[r] = finish
                    pc[r] += 1
                elif isinstance(ev, CollectiveEvent):
                    idx = coll_index[r]
                    spec = (ev.op, ev.nbytes)
                    if idx in coll_spec and coll_spec[idx] != spec:
                        raise ValueError(
                            f"collective #{idx} mismatch: rank {r} issues "
                            f"{spec}, others issued {coll_spec[idx]}"
                        )
                    coll_spec[idx] = spec
                    arrivals = coll_arrivals.setdefault(idx, {})
                    arrivals[r] = clock[r]
                    coll_index[r] += 1
                    if len(arrivals) < n:
                        break  # blocked until the last rank arrives
                    cost = _COLLECTIVE_COST[ev.op](network, n, ev.nbytes)
                    finish = max(arrivals.values()) + cost
                    for rank, arrived in arrivals.items():
                        comm_time[rank] += finish - arrived
                        clock[rank] = finish
                        pc[rank] += 1
                        if rank != r:
                            wake(rank)
                    # every rank has passed this collective; its
                    # bookkeeping can never be consulted again
                    del coll_arrivals[idx]
                    del coll_spec[idx]
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown event type {type(ev)!r}")
            else:
                done_count += 1

        if done_count < n:
            stuck = [r for r in range(n) if pc[r] < len(scripts[r])]
            detail = ", ".join(
                f"rank {r} at event {pc[r]}/{len(scripts[r])} "
                f"({type(scripts[r][pc[r]]).__name__})"
                for r in stuck[:5]
            )
            raise ReplayDeadlockError(
                f"replay of {job.app} deadlocked with {len(stuck)} rank(s) "
                f"blocked: {detail}"
            )

        return ReplayResult(
            app=job.app,
            n_ranks=n,
            runtime_s=float(clock.max()) if n else 0.0,
            compute_time_s=compute_time,
            comm_time_s=comm_time,
            n_events=n_events,
        )


def _compute_times(job: Job, timer: ComputationTimer) -> Optional[np.ndarray]:
    """Seconds of every compute row, or ``None`` when pricing raised (the
    engine then raises it, or an earlier error, where the replay meets it).

    A :class:`UniformTimer` prices each block once and a
    :class:`PerRankTimer` once per distinct cost function; any other
    timer is asked row by row.
    """
    try:
        if type(timer) is UniformTimer:
            fn = timer._iteration_time_s
            group_of_rank = np.zeros(job.n_ranks, dtype=np.int64)
            return job.compute_costs(group_of_rank, lambda g, block: fn(block))
        if type(timer) is PerRankTimer:
            groups: Dict[Callable, int] = {}
            group_of_rank = np.array(
                [groups.setdefault(timer._timers.get(r), len(groups))
                 for r in range(job.n_ranks)],
                dtype=np.int64,
            )
            fns = list(groups)
            return job.compute_costs(group_of_rank, lambda g, block: fns[g](block))
        compute = job.rows[:, 0] == COMPUTE
        ranks = job.row_ranks[compute].tolist()
        return np.array(
            [timer.time_s(r, block, iterations) for r, (block, iterations)
             in zip(ranks, job.rows[compute, 1:3].tolist())],
            dtype=np.float64,
        )
    except Exception:
        return None


def _per_size(sizes: np.ndarray, cost: Callable[[int], float]) -> np.ndarray:
    """``cost(size)`` of every entry, asked once per distinct size."""
    distinct, inverse = np.unique(sizes, return_inverse=True)
    return np.array([cost(b) for b in distinct.tolist()], dtype=np.float64)[inverse]


def _row_seconds(
    job: Job, compute_s: np.ndarray, network: NetworkParameters
) -> np.ndarray:
    """Every row's precomputed seconds: compute time, recv transfer time,
    collective cost (0 for sends, whose overhead is one constant)."""
    kind, size = job.rows[:, 0], job.rows[:, 2]
    dt = np.zeros(job.n_events)
    dt[kind == COMPUTE] = compute_s
    recv = kind == RECV
    dt[recv] = _per_size(size[recv], network.p2p_time_s)
    coll = np.flatnonzero(kind == COLLECTIVE)
    ops = job.rows[coll, 1]
    for op in np.unique(ops).tolist():
        rows = coll[ops == op]
        cost = _COLLECTIVE_COST[COLLECTIVE_OPS[op]]
        dt[rows] = _per_size(size[rows], lambda b: cost(network, job.n_ranks, b))
    return dt


def _raise_replay_error(job: Job, code: int, info: np.ndarray, pc: np.ndarray):
    """The kernel's error as the engine words it."""
    rows = job.rows
    if code == native.SIZE_MISMATCH:
        r, i, sent = info[:3].tolist()
        key = (int(rows[i, 1]), r, int(rows[i, 3]))
        raise ValueError(
            f"message size mismatch on {key}: sent {sent}, "
            f"receiving {int(rows[i, 2])}"
        )
    if code == native.COLLECTIVE_MISMATCH:
        r, i, first, idx = info.tolist()

        def spec(row):
            return (COLLECTIVE_OPS[rows[row, 1]], int(rows[row, 2]))

        raise ValueError(
            f"collective #{idx} mismatch: rank {r} issues "
            f"{spec(i)}, others issued {spec(first)}"
        )
    lengths = np.diff(job.offsets).tolist()
    pc = pc.tolist()
    stuck = [r for r in range(job.n_ranks) if pc[r] < lengths[r]]
    detail = ", ".join(
        f"rank {r} at event {pc[r]}/{lengths[r]} "
        f"({KIND_NAMES[rows[job.offsets[r] + pc[r], 0]]})"
        for r in stuck[:5]
    )
    raise ReplayDeadlockError(
        f"replay of {job.app} deadlocked with {len(stuck)} rank(s) "
        f"blocked: {detail}"
    )


def _replay_rows(
    kernel: Callable, job: Job, compute_s: np.ndarray, network: NetworkParameters
) -> ReplayResult:
    """One call of the native kernel over the job's rows."""
    n = job.n_ranks
    kind = job.rows[:, 0]
    dt = _row_seconds(job, compute_s, network)
    chan, keys = job.channels
    sends = np.bincount(chan[kind == SEND], minlength=len(keys))
    n_send = int(sends.sum())
    chan_start = np.cumsum(sends) - sends
    iwork = np.zeros(4 * n + 3 * len(keys) + n_send, dtype=np.int64)
    fwork = np.zeros(3 * n + n_send)
    info = np.zeros(4, dtype=np.int64)
    code = kernel(
        n, job.offsets.ctypes.data, job.rows.ctypes.data, dt.ctypes.data,
        chan.ctypes.data, len(keys), chan_start.ctypes.data,
        network.send_overhead_us * 1e-6,
        iwork.ctypes.data, fwork.ctypes.data, info.ctypes.data,
    )
    if code != native.OK:
        _raise_replay_error(job, code, info, iwork[:n] - job.offsets[:-1])
    clock = fwork[:n]
    return ReplayResult(
        app=job.app,
        n_ranks=n,
        runtime_s=float(clock.max()) if n else 0.0,
        compute_time_s=fwork[n:2 * n].copy(),
        comm_time_s=fwork[2 * n:3 * n].copy(),
        n_events=job.n_events,
    )


def replay_job(
    job: Job,
    timer: ComputationTimer,
    network: NetworkParameters,
) -> ReplayResult:
    """Replay a job's event traces; return the predicted runtime.

    Runs the native kernel when it loads (compiled on the first replay),
    else :class:`ReplayEngine`; the two agree bit for bit.
    """
    with span("replay.job", n_ranks=job.n_ranks):
        kernel = load(native.KERNEL)
        compute_s = None if kernel is None else _compute_times(job, timer)
        if compute_s is None:
            return ReplayEngine(job, timer, network).run()
        return _replay_rows(kernel, job, compute_s, network)
