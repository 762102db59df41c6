"""SimMPI's columnar jobs: recording, checks, verification, profiling.

A job is an ``(n_events, 4)`` int64 table plus per-rank offsets; event
objects are decoded views of it.  These tests pin that the table holds
exactly what the event objects say, that the checks event construction
made still fire, that the numpy ``verify_job`` words its errors as the
per-event ``Counter`` version did, and that the profiler's per-class
pricing equals per-rank pricing to the last bit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import get_app
from repro.cache.configs import get_hierarchy
from repro.instrument.collector import CollectorConfig
from repro.pipeline.collect import CollectionSettings, collect_signature
from repro.simmpi.comm import SimComm
from repro.simmpi.events import CollectiveEvent, RecvEvent, SendEvent
from repro.simmpi.profiler import _block_iteration_cost_ns, profile_job
from repro.simmpi.runtime import (
    AllRanksComm,
    Job,
    JobVerificationError,
    run_job,
    verify_job,
)
from repro.util.validation import ValidationError
from tests.test_psins_native import jobs

TRAINING = {
    "jacobi": (4, 8, 16),
    "specfem3d": (96, 384, 1536),
    "uh3d": (1024, 2048, 4096),
}


def _counter_verify(job):
    """``verify_job`` as it was written over event objects."""
    sends, recvs, seqs = Counter(), Counter(), []
    for script in job.scripts:
        seq = []
        for ev in script.events:
            if isinstance(ev, SendEvent):
                sends[(script.rank, ev.dest, ev.tag)] += 1
            elif isinstance(ev, RecvEvent):
                recvs[(ev.src, script.rank, ev.tag)] += 1
            elif isinstance(ev, CollectiveEvent):
                seq.append((ev.op, ev.nbytes))
        seqs.append(tuple(seq))
    for label, mine, theirs in (("send", sends, recvs), ("recv", recvs, sends)):
        unmatched = mine - theirs
        if unmatched:
            key, count = next(iter(unmatched.items()))
            raise JobVerificationError(
                f"{job.app}: {count} unmatched {label}(s) on (src, dest, tag)={key}"
            )
    for rank, seq in enumerate(seqs[1:], start=1):
        if seq != seqs[0]:
            raise JobVerificationError(
                f"{job.app}: rank {rank} collective sequence differs from rank 0 "
                f"({len(seq)} vs {len(seqs[0])} collectives or mismatched ops)"
            )


def _message(fn):
    try:
        fn()
    except JobVerificationError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(job=jobs())
def test_verify_job_words_errors_as_before(job):
    assert _message(lambda: verify_job(job)) == _message(lambda: _counter_verify(job))


@pytest.mark.parametrize("name", sorted(TRAINING))
def test_rows_round_trip_through_events(name):
    app = get_app(name)
    for p in TRAINING[name][:2]:
        job = app.build_job(p)
        again = Job(job.app, job.n_ranks, job.scripts)
        assert np.array_equal(again.rows, job.rows)
        assert np.array_equal(again.offsets, job.offsets)
        assert not job.rows.flags.writeable


def test_comm_rows_decode_to_the_calls():
    comm = SimComm(0, 4)
    comm.compute(7, 100)
    comm.send(1, 64, tag=3)
    comm.broadcast(16)
    assert list(comm.rows) == [0, 7, 100, 0, 1, 1, 64, 3, 3, 3, 16, 0]
    assert comm.events[2] == CollectiveEvent(op="broadcast", nbytes=16)


@pytest.mark.parametrize("call", [
    lambda comm: comm.send(1, -1),
    lambda comm: comm.recv(1, -8, tag=2),
    lambda comm: comm.allreduce(-4),
])
def test_negative_sizes_rejected_at_assembly(call):
    def fn(comm):
        if comm.rank == 0:
            call(comm)

    with pytest.raises(ValidationError, match="nbytes must be >= 0"):
        run_job("bad", 2, fn)


def test_rank_checks_stay_at_the_call():
    comm = SimComm(1, 4)
    with pytest.raises(ValueError, match="out of range"):
        comm.send(4, 8)
    with pytest.raises(ValueError, match="self-receives"):
        comm.recv(1, 8)
    assert list(comm.rows) == []


@st.composite
def spmd_calls(draw):
    """A communicator size and calls with per-rank arguments: peers that
    may be -1 (nothing recorded), iteration counts that may be <= 0
    (nothing recorded), scalars mixed with arrays, and time loops that
    pass the same arrays every step."""
    n = draw(st.integers(1, 5))
    per_rank = st.lists(st.integers(-3, 50), min_size=n, max_size=n).map(np.array)
    value = st.one_of(st.integers(0, 50), per_rank.map(np.abs))

    def peers():
        # any rank or -1 (no peer); a rank's own number stands for -1 too
        ranks = st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)
        return ranks.map(lambda p: np.array([-1 if q == r else q for r, q in enumerate(p)]))

    def call():
        kind = draw(st.sampled_from(["compute", "send", "recv", "allreduce", "barrier"]))
        if kind == "compute":
            return kind, (draw(st.integers(0, 3)), draw(st.one_of(st.integers(-2, 9), per_rank)))
        if kind in ("send", "recv"):
            return kind, (draw(peers()), draw(value), draw(st.integers(0, 2)))
        if kind == "allreduce":
            return kind, (draw(st.integers(0, 64)),)
        return kind, ()

    body = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            body.append(call())
        else:
            body.append(("loop", (draw(st.integers(0, 3)), [call() for _ in range(3)])))
    return n, body


def _record_all(comm, body):
    for kind, args in body:
        if kind == "loop":
            times, inner = args
            for _ in range(times):
                _record_all(comm, inner)
        elif kind in ("send", "recv"):
            peer, nbytes, tag = args
            getattr(comm, kind)(peer, nbytes, tag=tag)
        else:
            getattr(comm, kind)(*args)


def _record_one(comm, body):
    """The same calls for one rank, through the scalar ``SimComm``."""
    def pick(value):
        return int(value[comm.rank]) if np.ndim(value) else value

    for kind, args in body:
        if kind == "loop":
            times, inner = args
            for _ in range(times):
                _record_one(comm, inner)
        elif kind in ("send", "recv"):
            peer, nbytes, tag = (pick(a) for a in args)
            if peer >= 0:
                getattr(comm, kind)(peer, nbytes, tag=tag)
        else:
            getattr(comm, kind)(*(pick(a) for a in args))


@settings(max_examples=200, deadline=None)
@given(case=spmd_calls())
def test_all_ranks_recorder_matches_run_job(case):
    n, body = case
    comm = AllRanksComm(n)
    _record_all(comm, body)
    job = comm.job("hyp")
    expected = run_job("hyp", n, lambda c: _record_one(c, body))
    assert np.array_equal(job.rows, expected.rows)
    assert np.array_equal(job.offsets, expected.offsets)
    assert not job.rows.flags.writeable


def test_all_ranks_recorder_drops_empty_work_and_absent_peers():
    comm = AllRanksComm(3)
    comm.compute(2, np.array([5, 0, -1]))
    comm.compute(4, 0)
    comm.send(np.array([1, -1, 0]), 8, tag=1)
    comm.recv(np.array([-1, 0, -1]), np.array([0, 8, 0]), tag=1)
    job = comm.job("t")
    assert job.offsets.tolist() == [0, 2, 3, 4]
    assert job.rows.tolist() == [
        [0, 2, 5, 0], [1, 1, 8, 1], [2, 0, 8, 1], [1, 0, 8, 1],
    ]


@pytest.mark.parametrize("call,message", [
    (lambda comm: comm.send(np.array([1, 2, -2, 0]), 8), "rank 2: send dest -2 out of range"),
    (lambda comm: comm.recv(np.array([1, 4, 5, 0]), 8),
     r"rank 1: recv src 4 out of range \(size 4\)"),
    (lambda comm: comm.send(np.array([1, 0, 2, 0]), 8), "rank 2: self-sends are not modeled"),
    (lambda comm: comm.recv(3, 8), "rank 3: self-receives are not modeled"),
    (lambda comm: comm.send(-5, 8), "rank 0: send dest -5 out of range"),
])
def test_all_ranks_recorder_names_the_first_bad_rank(call, message):
    comm = AllRanksComm(4)
    with pytest.raises(ValueError, match=message):
        call(comm)
    assert comm.job("t").n_events == 0


@pytest.mark.parametrize("call", [
    lambda comm: comm.compute(0, np.array([1.5, 2.0, 1.0, 1.0])),
    lambda comm: comm.send(np.array([1, 2]), 8),
    lambda comm: comm.allreduce(8.0),
])
def test_all_ranks_recorder_rejects_non_integer_or_misshaped_arguments(call):
    comm = AllRanksComm(4)
    with pytest.raises(ValueError, match="expected an integer or 4 per-rank integers"):
        call(comm)


def test_all_ranks_recorder_leaves_sizes_to_assembly():
    comm = AllRanksComm(2)
    comm.send(np.array([1, -1]), np.array([-4, -9]))
    with pytest.raises(ValidationError, match="nbytes must be >= 0, got -4"):
        comm.job("bad")


def _per_event_times(job, program_for_rank):
    """The profiler as it was written: every rank's own program, its
    compute events summed one by one."""
    times = {}
    for script in job.scripts:
        program, total_ns = program_for_rank(script.rank), 0.0
        for ev in script.compute_events():
            cost_ns = _block_iteration_cost_ns(program.block(ev.block_id))
            total_ns += cost_ns * ev.iterations
        times[script.rank] = total_ns * 1e-9
    return times


@pytest.mark.parametrize("name", sorted(TRAINING))
def test_class_pricing_equals_per_rank_pricing(name):
    app = get_app(name)
    for p in TRAINING[name]:
        job = app.build_job(p)
        factory = app.program_factory(p)
        expected = _per_event_times(job, factory)
        per_class = profile_job(job, factory, app.equivalence_classes(p))
        assert per_class.compute_times_s == expected
        assert profile_job(job, factory).compute_times_s == expected


def test_profile_rejects_classes_that_do_not_partition():
    app = get_app("jacobi")
    job = app.build_job(4)
    with pytest.raises(ValueError, match="partition"):
        profile_job(job, app.program_factory(4), [[0, 1], [2]])


def test_collected_signature_keeps_per_rank_times():
    app = get_app("jacobi")
    settings = CollectionSettings(
        collector=CollectorConfig(sample_accesses=2000, max_sample_accesses=20000),
        workers=0,
    )
    signature = collect_signature(app, 8, get_hierarchy("blue_waters_p1"), settings)
    expected = profile_job(app.build_job(8), app.program_factory(8))
    assert signature.compute_times == expected.compute_times_s
