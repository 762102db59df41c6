"""The fault-tolerant executor: every recovery path, exercised.

Injected faults (crash, hang, transient, cache corruption) drive
retries, pool restarts, timeouts, and serial fallback; the acceptance
property throughout is that recovery is *invisible in the results* —
a faulty run returns bit-identical values to a fault-free serial run,
with only the RunReport differing.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.exec import faults
from repro.exec.faults import FaultPlan, FaultSpec
from repro.exec.resilience import (
    ResilienceConfig,
    RunReport,
    backoff_s,
    run_tasks_resilient,
)
from repro.util.errors import (
    TaskCrashError,
    TaskTimeoutError,
    TransientTaskError,
)

from tests.conftest import FAST_COLLECTOR

ROOT = Path(__file__).resolve().parents[1]

FAST = ResilienceConfig(backoff_base_s=0.001, backoff_max_s=0.01)


def _square(x):
    return x * x


def _logged_square(log, x):
    """``_square`` that appends ``x`` to ``log``: one line per execution."""
    with open(log, "a") as fh:
        fh.write(f"{x}\n")
    return x * x


def _boom(x):
    raise ValueError(f"deterministic failure {x}")


def _crash_first_run(marker, x):
    """Raise TaskCrashError itself, without dying, until ``marker`` exists."""
    try:
        open(marker, "x").close()
    except FileExistsError:
        return x * x
    raise TaskCrashError(f"task {x} gave up on its own")


def _unpicklable_result(x):
    return lambda: x  # a local object: the lane's reply cannot pickle it


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _running(pid: int) -> bool:
    """True while ``pid`` exists and has not exited (zombies have)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestSerialResilient:
    def test_plain_results_match_run_tasks(self):
        tasks = [(i,) for i in range(6)]
        results, report = run_tasks_resilient(
            _square, tasks, workers=0, config=FAST
        )
        assert results == [i * i for i in range(6)]
        assert report.clean

    def test_transient_fault_retried_deterministically(self):
        plan = FaultPlan(
            specs=(FaultSpec(key="t2", kind="raise", attempts=(1, 2)),)
        )
        keys = [f"t{i}" for i in range(4)]
        with faults.injected(plan):
            results, report = run_tasks_resilient(
                _square, [(i,) for i in range(4)], keys=keys,
                workers=0, config=FAST,
            )
        assert results == [0, 1, 4, 9]
        assert report.transient_errors == 2
        assert report.retries == 2
        assert not report.clean

    def test_transient_fault_exhausts_retries(self):
        plan = FaultPlan(
            specs=(FaultSpec(key="t1", kind="raise", attempts=(1, 2, 3, 4)),)
        )
        with faults.injected(plan):
            with pytest.raises(TransientTaskError):
                run_tasks_resilient(
                    _square, [(1,), (2,)], keys=["t1", "t2"],
                    workers=0,
                    config=ResilienceConfig(max_retries=2, backoff_base_s=0.001),
                )

    def test_serial_crash_fault_retried(self):
        plan = FaultPlan(specs=(FaultSpec(key="c0", kind="crash"),))
        with faults.injected(plan):
            results, report = run_tasks_resilient(
                _square, [(3,)], keys=["c0"], workers=0, config=FAST
            )
        assert results == [9]
        assert report.crashes == 1

    def test_deterministic_error_propagates_immediately(self):
        report = RunReport()
        with pytest.raises(ValueError, match="deterministic failure"):
            run_tasks_resilient(
                _boom, [(1,)], workers=0, config=FAST, report=report
            )
        assert report.retries == 0  # pure errors are never retried

    def test_on_result_called_per_task(self):
        seen = {}
        run_tasks_resilient(
            _square, [(i,) for i in range(3)], workers=0, config=FAST,
            on_result=lambda i, v: seen.__setitem__(i, v),
        )
        assert seen == {0: 0, 1: 1, 2: 4}


class TestBackoff:
    def test_backoff_is_deterministic_and_bounded(self):
        cfg = ResilienceConfig(backoff_base_s=0.1, backoff_max_s=0.5)
        a = backoff_s("collect:jacobi:8", 3, cfg)
        b = backoff_s("collect:jacobi:8", 3, cfg)
        assert a == b  # keyed RNG: identical runs back off identically
        assert 0.0 < a <= 0.4  # ceiling 0.1 * 2**2 = 0.4
        # different keys / attempts draw independently
        assert backoff_s("collect:jacobi:16", 3, cfg) != a
        assert backoff_s("collect:jacobi:8", 2, cfg) != a

    def test_backoff_ceiling_capped(self):
        cfg = ResilienceConfig(backoff_base_s=0.1, backoff_max_s=0.15)
        assert backoff_s("k", 10, cfg) <= 0.15


class TestPooledResilient:
    def test_worker_crash_recovered_by_pool_restart(self):
        plan = FaultPlan(specs=(FaultSpec(key="p1", kind="crash"),))
        keys = [f"p{i}" for i in range(4)]
        with faults.injected(plan):
            results, report = run_tasks_resilient(
                _square, [(i,) for i in range(4)], keys=keys,
                workers=2, config=FAST,
            )
        assert results == [0, 1, 4, 9]
        assert report.crashes == 1
        assert report.pool_restarts == 1
        assert report.serial_fallbacks == 0

    def test_hang_detected_by_timeout_and_retried(self):
        # attempt 1 hangs for 30s; the 0.5s budget kills the pool and
        # attempt 2 (fault exhausted) succeeds — promptly
        plan = FaultPlan(
            specs=(FaultSpec(key="h0", kind="hang", seconds=30.0),)
        )
        cfg = ResilienceConfig(
            task_timeout_s=0.5, backoff_base_s=0.001, backoff_max_s=0.01
        )
        start = time.monotonic()
        with faults.injected(plan):
            results, report = run_tasks_resilient(
                _square, [(5,), (6,)], keys=["h0", "h1"],
                workers=2, config=cfg,
            )
        elapsed = time.monotonic() - start
        assert results == [25, 36]
        assert report.timeouts == 1
        assert report.pool_restarts >= 1
        assert elapsed < 15.0  # nowhere near the 30s hang

    def test_timeout_kills_only_the_overdue_attempt(self, tmp_path):
        # h0 hangs past the 2s budget; h1 holds the other worker for
        # 1.5s, so h2 runs there from ~1.5s to ~2.5s, across h0's
        # deadline.  Only h0's worker is killed: h2 runs exactly once
        plan = FaultPlan(
            specs=(
                FaultSpec(key="h0", kind="hang", seconds=30.0),
                FaultSpec(key="h1", kind="hang", seconds=1.5),
                FaultSpec(key="h2", kind="hang", seconds=1.0),
            )
        )
        cfg = ResilienceConfig(
            task_timeout_s=2.0, backoff_base_s=0.001, backoff_max_s=0.01
        )
        log = tmp_path / "runs.log"
        with faults.injected(plan):
            results, report = run_tasks_resilient(
                _logged_square, [(log, 5), (log, 6), (log, 7)],
                keys=["h0", "h1", "h2"], workers=2, config=cfg,
            )
        assert results == [25, 36, 49]
        assert sorted(log.read_text().split()) == ["5", "6", "7"]
        assert report.timeouts == 1
        assert report.retries == 1
        assert report.pool_restarts == 1

    def test_crash_charges_only_the_crashing_attempt(self, tmp_path):
        # c1 is mid-run on the other worker when c0's worker dies; it
        # finishes undisturbed, so the crash costs one retry, not two
        plan = FaultPlan(
            specs=(
                FaultSpec(key="c0", kind="crash"),
                FaultSpec(key="c1", kind="hang", seconds=1.0),
            )
        )
        log = tmp_path / "runs.log"
        with faults.injected(plan):
            results, report = run_tasks_resilient(
                _logged_square, [(log, 2), (log, 3)],
                keys=["c0", "c1"], workers=2, config=FAST,
            )
        assert results == [4, 9]
        assert sorted(log.read_text().split()) == ["2", "3"]
        assert report.crashes == 1
        assert report.retries == 1
        assert report.pool_restarts == 1

    def test_slow_task_does_not_hold_back_its_neighbours(self):
        # no barrier between tasks: while slow0 holds one worker, the
        # other worker drains every fast task, each landing on its own
        plan = FaultPlan(
            specs=(FaultSpec(key="slow0", kind="hang", seconds=1.0),)
        )
        keys = ["slow0"] + [f"fast{i}" for i in range(1, 5)]
        landed = []
        with faults.injected(plan):
            results, _ = run_tasks_resilient(
                _square, [(i,) for i in range(5)], keys=keys,
                workers=2, config=FAST,
                on_result=lambda i, _: landed.append(i),
            )
        assert results == [0, 1, 4, 9, 16]
        assert landed[-1] == 0

    def test_timeout_exhaustion_raises_taxonomy_error(self):
        plan = FaultPlan(
            specs=(FaultSpec(key="h0", kind="hang", seconds=30.0,
                             attempts=(1, 2)),)
        )
        cfg = ResilienceConfig(
            task_timeout_s=0.3, max_retries=1,
            backoff_base_s=0.001, pool_restart_limit=99,
        )
        with faults.injected(plan):
            with pytest.raises(TaskTimeoutError, match="h0"):
                run_tasks_resilient(
                    _square, [(5,), (6,)], keys=["h0", "h1"],
                    workers=2, config=cfg,
                )

    def test_repeated_pool_failure_degrades_to_serial(self):
        # task s0 crashes its worker on attempts 1 and 2 -> two broken
        # pools -> restart limit 1 exceeded -> remaining tasks run
        # serially in-process (where the crash fault no longer fires)
        plan = FaultPlan(
            specs=(FaultSpec(key="s0", kind="crash", attempts=(1, 2)),)
        )
        cfg = ResilienceConfig(
            max_retries=5, pool_restart_limit=1,
            backoff_base_s=0.001, backoff_max_s=0.01,
        )
        with faults.injected(plan):
            results, report = run_tasks_resilient(
                _square, [(i,) for i in range(3)],
                keys=[f"s{i}" for i in range(3)],
                workers=2, config=cfg,
            )
        assert results == [0, 1, 4]
        assert report.serial_fallbacks == 1
        assert report.pool_restarts == 2
        assert report.crashes >= 2

    def test_crash_exhaustion_raises_task_crash_error(self):
        plan = FaultPlan(
            specs=(FaultSpec(key="s0", kind="crash",
                             attempts=(1, 2, 3, 4, 5, 6)),)
        )
        cfg = ResilienceConfig(
            max_retries=1, pool_restart_limit=99, backoff_base_s=0.001
        )
        with faults.injected(plan):
            with pytest.raises(TaskCrashError):
                run_tasks_resilient(
                    _square, [(1,), (2,)], keys=["s0", "s1"],
                    workers=2, config=cfg,
                )

    def test_faulty_run_bit_identical_to_clean_serial(self):
        tasks = [(i,) for i in range(8)]
        keys = [f"b{i}" for i in range(8)]
        clean, _ = run_tasks_resilient(
            _square, tasks, keys=keys, workers=0, config=FAST
        )
        plan = FaultPlan(
            specs=(
                FaultSpec(key="b2", kind="crash"),
                FaultSpec(key="b5", kind="raise"),
            )
        )
        with faults.injected(plan):
            faulty, report = run_tasks_resilient(
                _square, tasks, keys=keys, workers=3, config=FAST
            )
        assert faulty == clean
        assert report.crashes == 1
        assert report.transient_errors == 1

    def test_task_raised_crash_retried_on_the_same_lane(self, tmp_path):
        # a TaskCrashError the task raises arrives as an ordinary reply:
        # charged as one crash and retried, while its worker lives on
        done = tmp_path / "done"
        done.touch()
        results, report = run_tasks_resilient(
            _crash_first_run, [(tmp_path / "c0", 2), (done, 3)],
            keys=["c0", "c1"], workers=2, config=FAST,
        )
        assert results == [4, 9]
        assert report.crashes == 1
        assert report.retries == 1
        assert report.pool_restarts == 0

    def test_unpicklable_result_fails_at_once(self):
        # the reply carries the pickling error: a deterministic failure,
        # neither a crash nor a retry
        report = RunReport()
        with pytest.raises(Exception, match="pickle"):
            run_tasks_resilient(
                _unpicklable_result, [(1,), (2,)], workers=2, config=FAST,
                report=report,
            )
        assert report.crashes == 0
        assert report.retries == 0

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pair up"):
            run_tasks_resilient(_square, [(1,), (2,)], keys=["only-one"])


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts /proc/self/fd"
)
class TestLaneBudget:
    """A lane costs the parent one process and one pipe: three fds (the
    pipe, plus the process sentinel and its partner under fork) and no
    thread; and it does not outlive the parent."""

    def test_eight_lanes_hold_three_fds_each_and_no_thread(self):
        base_fds, base_threads = _open_fds(), threading.active_count()
        seen = []

        def sample(i, value):
            seen.append((
                len(multiprocessing.active_children()), _open_fds(),
                threading.active_count(),
            ))

        results, _ = run_tasks_resilient(
            _square, [(i,) for i in range(16)], workers=8, config=FAST,
            on_result=sample,
        )
        assert results == [i * i for i in range(16)]
        assert max(lanes for lanes, _, _ in seen) >= 8
        assert max(fds for _, fds, _ in seen) <= base_fds + 3 * 8
        assert max(threads for _, _, threads in seen) == base_threads

    def test_eight_lanes_run_under_a_48_fd_limit(self):
        script = textwrap.dedent("""
            import resource
            _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (48, hard))
            from repro.exec.resilience import run_tasks_resilient
            results, _ = run_tasks_resilient(
                abs, [(-i,) for i in range(16)], workers=8
            )
            assert results == list(range(16)), results
        """)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_lanes_exit_quietly_when_the_parent_is_killed(self):
        # the parent dies by SIGKILL as the first result lands; every
        # lane then reads EOF (or a broken pipe) and exits without a
        # traceback instead of waiting forever for its next attempt
        script = textwrap.dedent("""
            import multiprocessing, os, signal
            from repro.exec.resilience import run_tasks_resilient

            def die(i, value):
                pids = [p.pid for p in multiprocessing.active_children()]
                print(*pids, flush=True)
                os.kill(os.getpid(), signal.SIGKILL)

            run_tasks_resilient(
                abs, [(-i,) for i in range(8)], workers=4, on_result=die
            )
        """)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        ) as proc:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert proc.wait(timeout=60) == -signal.SIGKILL
            assert len(pids) == 4
            try:
                deadline = time.monotonic() + 30
                while any(map(_running, pids)) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not any(map(_running, pids))
            finally:
                for pid in filter(_running, pids):
                    os.kill(pid, signal.SIGKILL)
            assert "Traceback" not in proc.stderr.read()


class TestFaultInjectedTable1:
    """Acceptance: a full Table I row under an injected fault plan —
    one worker crash, one transient exception, one corrupted cache
    entry — completes bit-identical to a fault-free serial run, and the
    RunReport records exactly the injected faults."""

    TRAIN = (4, 8)
    TARGET = 16

    def _config(self, cache, workers, resilience=FAST):
        from repro.pipeline.collect import CollectionSettings
        from repro.pipeline.experiment import Table1Config

        return Table1Config(
            collection=CollectionSettings(
                collector=FAST_COLLECTOR, workers=workers,
                resilience=resilience,
            ),
            cache=cache,
            accesses_per_probe=20_000,
        )

    def test_table1_under_faults_matches_clean_serial(
        self, tmp_path, small_jacobi
    ):
        from repro.exec.sigcache import SignatureCache
        from repro.pipeline.experiment import run_table1

        # --- reference: fault-free, serial, uncached
        clean = run_table1(
            small_jacobi, self.TRAIN, self.TARGET, self._config(None, 0)
        )

        # --- pre-corrupt the cache entry for the count-8 unit so the
        # run discovers, quarantines, and recollects it
        cache = SignatureCache(tmp_path / "cache")
        cfg = self._config(
            cache, workers=2,
            resilience=ResilienceConfig(
                backoff_base_s=0.001, backoff_max_s=0.01, max_retries=3
            ),
        )
        key8 = cache.key_for(
            small_jacobi, 8, _bw_hierarchy(), cfg.collection
        )
        cache.root.mkdir(parents=True, exist_ok=True)
        (cache.root / f"{key8}.pkl").write_bytes(b"torn entry \x00\x01")

        plan = FaultPlan(
            specs=(
                FaultSpec(key="collect:jacobi:4", kind="crash"),
                FaultSpec(key="collect:jacobi:16", kind="raise"),
            )
        )
        with faults.injected(plan):
            faulty = run_table1(small_jacobi, self.TRAIN, self.TARGET, cfg)

        # bit-identical rows despite one crash, one transient error,
        # and one corrupt cache entry
        for clean_row, faulty_row in zip(clean.rows, faulty.rows):
            assert faulty_row.predicted_runtime_s == clean_row.predicted_runtime_s
            assert faulty_row.measured_runtime_s == clean_row.measured_runtime_s

        report = faulty.run_report
        assert report.crashes == 1
        assert report.transient_errors == 1
        assert report.timeouts == 0
        assert report.cache_corruptions == 1
        assert report.quarantined == [key8]
        assert cache.stats.corrupt == 1
        # the corrupt entry was preserved for post-mortem, not deleted
        assert len(cache.store.quarantined()[key8]) == 1

    def test_cli_default_policy_records_the_retry(self, tmp_path, capsys):
        # neither --task-timeout nor --max-retries: the plan still fires
        # and the manifest accounts for it exactly
        from repro.cli import main

        manifest = tmp_path / "manifest.json"
        plan = FaultPlan(
            specs=(FaultSpec(key="collect:jacobi:4", kind="raise"),)
        )
        with faults.injected(plan):
            rc = main(
                ["table1", "--app", "jacobi", "--train", "4,8",
                 "--target", "16", "--workers", "0", "--no-cache",
                 "--manifest-out", str(manifest)]
            )
        capsys.readouterr()
        assert rc == 0
        report = json.loads(manifest.read_text())["resilience"]
        assert report["transient_errors"] == 1
        assert report["retries"] == 1


def _bw_hierarchy():
    from repro.machine.systems import get_spec

    return get_spec("blue_waters_p1").hierarchy
