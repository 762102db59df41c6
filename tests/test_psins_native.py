"""The native event replay against its oracle, ``ReplayEngine``.

``replay_job`` replays a job's event rows through one C function
(``repro.psins.native``) whenever the kernel loads.  Its contract is the
Python engine's, bit for bit: an equal ``ReplayResult`` (runtime,
per-rank compute and comm arrays, event count), or the same exception
type with the same message.  These tests check it on
hypothesis-generated jobs, on every app at its Table I training and
target counts under both timer kinds the pipeline uses, and without a
compiler, where ``replay_job`` is the engine itself.
"""

from __future__ import annotations

import logging
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.registry import get_app
from repro.machine.network import NetworkParameters
from repro.machine.systems import get_spec
from repro.psins import native
from repro.psins.ground_truth import GroundTruthConfig, GroundTruthTimer
from repro.psins.replay import (
    ComputationTimer,
    PerRankTimer,
    ReplayEngine,
    UniformTimer,
    replay_job,
)
from repro.simmpi.events import (
    COLLECTIVE_OPS,
    CollectiveEvent,
    ComputeEvent,
    RecvEvent,
    SendEvent,
)
from repro.simmpi.runtime import Job, RankScript
from repro.util import native as loader

needs_compiler = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler on PATH",
)

#: Table I protocols (jacobi: the small row the CLI tests use)
COUNTS = {
    "jacobi": (4, 8, 16, 32, 64),
    "specfem3d": (96, 384, 1536, 6144),
    "uh3d": (1024, 2048, 4096, 8192),
}


def _outcome(fn):
    """A replay's result, or ``(exception type, message)``."""
    try:
        return fn()
    except Exception as exc:  # the contract covers any error
        return type(exc), str(exc)


def _assert_same(native_out, oracle_out):
    if isinstance(oracle_out, tuple):
        assert native_out == oracle_out
        return
    assert not isinstance(native_out, tuple), native_out
    assert native_out.app == oracle_out.app
    assert native_out.n_ranks == oracle_out.n_ranks
    assert native_out.runtime_s == oracle_out.runtime_s
    assert np.array_equal(native_out.compute_time_s, oracle_out.compute_time_s)
    assert np.array_equal(native_out.comm_time_s, oracle_out.comm_time_s)
    assert native_out.n_events == oracle_out.n_events


def _check(job, timer, network):
    _assert_same(
        _outcome(lambda: replay_job(job, timer, network)),
        _outcome(lambda: ReplayEngine(job, timer, network).run()),
    )


@pytest.fixture(autouse=True)
def _kernel_loads():
    if shutil.which("cc") or shutil.which("gcc"):
        assert loader.load(native.KERNEL) is not None


# ----------------------------------------------------------------------
# hypothesis-generated jobs

SIZES = st.one_of(st.sampled_from([0, 1, 8, 1024, 65536]), st.integers(0, 10**7))


class RowTimer(ComputationTimer):
    """A timer the replay must ask row by row."""

    def __init__(self, costs):
        self.costs = costs

    def time_s(self, rank, block_id, iterations):
        return self.costs[(rank + block_id) % len(self.costs)] * iterations


@st.composite
def events(draw, n):
    kind = draw(st.sampled_from(["compute", "send", "recv", "collective"]))
    if kind == "compute":
        return ComputeEvent(block_id=draw(st.integers(0, 3)),
                            iterations=draw(st.integers(0, 10**6)))
    if kind == "collective":
        return CollectiveEvent(op=draw(st.sampled_from(COLLECTIVE_OPS)),
                               nbytes=draw(SIZES))
    peer = draw(st.integers(0, n - 1))
    tag = draw(st.integers(0, 2))
    if kind == "send":
        return SendEvent(dest=peer, nbytes=draw(SIZES), tag=tag)
    return RecvEvent(src=peer, nbytes=draw(SIZES), tag=tag)


@st.composite
def jobs(draw):
    """Mostly well-formed phases (compute, shifted exchanges, collectives),
    with mismatched sizes and specs, and stray events that leave sends
    unmatched or deadlock the replay."""
    n = draw(st.integers(1, 6))
    scripts = [[] for _ in range(n)]
    for _ in range(draw(st.integers(0, 10))):
        phase = draw(st.sampled_from(["compute", "exchange", "collective", "stray"]))
        if phase == "compute":
            for script in scripts:
                script.append(ComputeEvent(block_id=draw(st.integers(0, 3)),
                                           iterations=draw(st.integers(0, 10**6))))
        elif phase == "exchange" and n > 1:
            shift = draw(st.integers(1, n - 1))
            tag, nbytes = draw(st.integers(0, 2)), draw(SIZES)
            mismatch = draw(st.sampled_from([None] * 4 + list(range(n))))
            for r, script in enumerate(scripts):
                script.append(SendEvent(dest=(r + shift) % n, nbytes=nbytes, tag=tag))
            for r, script in enumerate(scripts):
                got = nbytes + 1 if r == mismatch else nbytes
                script.append(RecvEvent(src=(r - shift) % n, nbytes=got, tag=tag))
        elif phase == "collective":
            op, nbytes = draw(st.sampled_from(COLLECTIVE_OPS)), draw(SIZES)
            odd = draw(st.sampled_from([None] * 4 + list(range(n))))
            for r, script in enumerate(scripts):
                script.append(CollectiveEvent(op=op, nbytes=nbytes + (r == odd)))
        else:
            script = scripts[draw(st.integers(0, n - 1))]
            script.insert(draw(st.integers(0, len(script))), draw(events(n)))
    return Job("hyp", n, [RankScript(rank=r, events=s) for r, s in enumerate(scripts)])


@st.composite
def timers(draw, n_ranks):
    costs = draw(st.lists(st.floats(0.0, 1e-3), min_size=4, max_size=4))
    kind = draw(st.sampled_from(["uniform", "per_rank", "rows"]))
    if kind == "uniform":
        return UniformTimer(lambda block: costs[block])
    if kind == "rows":
        return RowTimer(costs)
    scales = draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2))
    fns = [lambda block, s=s: costs[block] * s for s in scales]
    return PerRankTimer({r: fns[r % 2] for r in range(n_ranks)})


NETWORKS = st.builds(
    NetworkParameters,
    latency_us=st.floats(0.1, 5.0),
    bandwidth_gbs=st.floats(0.5, 50.0),
    half_bandwidth_bytes=st.integers(1, 1 << 16),
    per_hop_us=st.floats(0.0, 2.0),
    send_overhead_us=st.floats(0.0, 1.0),
)


@needs_compiler
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_jobs_match_the_engine(data):
    job = data.draw(jobs())
    _check(job, data.draw(timers(job.n_ranks)), data.draw(NETWORKS))


# ----------------------------------------------------------------------
# the apps at their Table I counts


def _ground_truth_timer(app, n_ranks):
    """measure_job's timer: one cost function per equivalence class
    (small samples; the costs' provenance does not matter here)."""
    spec = get_spec("blue_waters_p1")
    config = GroundTruthConfig(sample_accesses=2000, max_sample_accesses=20000)
    timers = {}
    for cls in app.equivalence_classes(n_ranks):
        timer = GroundTruthTimer(
            app.rank_program(min(cls), n_ranks), spec.hierarchy, spec.timing, config
        )
        for rank in cls:
            timers[rank] = timer.iteration_time_s
    return PerRankTimer(timers)


@needs_compiler
@pytest.mark.parametrize(
    "name,n_ranks", [(name, p) for name, counts in COUNTS.items() for p in counts]
)
def test_apps_match_the_engine(name, n_ranks):
    app = get_app(name)
    job = app.build_job(n_ranks)
    network = get_spec("blue_waters_p1").network
    uniform = UniformTimer(lambda block: 1e-7 * (block + 1) + 3e-9)
    for timer in (uniform, _ground_truth_timer(app, n_ranks)):
        native_out = replay_job(job, timer, network)
        oracle_out = ReplayEngine(job, timer, network).run()
        _assert_same(native_out, oracle_out)
        assert native_out.runtime_s > 0


# ----------------------------------------------------------------------
# no compiler: the engine replays, after one warning


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _ring(comm):
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    for step in range(4):
        comm.compute(step % 2, 50 * (comm.rank + 1))
        comm.send(right, 512 * (step + 1), tag=step)
        comm.recv(left, 512 * (step + 1), tag=step)
        comm.allreduce(8)


def test_no_compiler_falls_back_to_the_engine(monkeypatch):
    from repro.simmpi.runtime import run_job

    job = run_job("ring", 12, _ring)
    timer = UniformTimer(lambda block: 2e-7 * (block + 1))
    network = NetworkParameters()
    logger = logging.getLogger("repro.util.native")
    handler, level = _Records(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    monkeypatch.setattr(loader, "_compiler", lambda: None)
    engine_runs = []
    original_run = ReplayEngine.run

    def counted_run(self):
        engine_runs.append(self)
        return original_run(self)

    monkeypatch.setattr(ReplayEngine, "run", counted_run)
    loader.cache_clear()
    try:
        fallback = [replay_job(job, timer, network) for _ in range(2)]
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        monkeypatch.undo()
        loader.cache_clear()
    assert len(engine_runs) == 2
    assert len(handler.records) == 1
    assert "no C compiler" in handler.records[0].getMessage()
    assert "Python engine" in handler.records[0].getMessage()
    _assert_same(fallback[0], fallback[1])
    _assert_same(replay_job(job, timer, network), fallback[0])
