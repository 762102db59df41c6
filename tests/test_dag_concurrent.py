"""Concurrent ``repro dag run`` processes sharing one cache directory.

The locking contract: exactly one process executes each node
(``O_CREAT|O_EXCL`` node lockfiles), a loser polls and adopts the
winner's committed artifact (counted in ``lock_waits``), and a lockfile
abandoned by a SIGKILLed holder is taken over once its mtime passes the
staleness horizon (``lock_takeovers``).  The exactly-once guarantee is
checked at the source of truth: the shared state store must hold one
``done`` record per node, no matter how many runners raced.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exec.resilience import ResilienceConfig
from repro.obs.manifest import digest_file
from repro.pipeline.dag import (
    STATE_FILE,
    SweepSpec,
    artifact_store,
    build_dag,
    dag_status,
    run_dag,
)
from repro.pipeline.journal import RunJournal
from repro.util.errors import DagError

SPEC_KW = dict(
    app="jacobi",
    train_counts=(4, 8),
    targets=(16,),
    table1=False,
    accesses_per_probe=2000,
    sample_accesses=20_000,
    max_sample_accesses=200_000,
    code_version="test",
)
#: the 7-node graph of SPEC_KW: 2 collects, fit, one extrapolate cone
N_NODES = 7


def _spec() -> SweepSpec:
    return SweepSpec(**SPEC_KW)


def _fast():
    return ResilienceConfig(
        max_retries=0, backoff_base_s=0.001, backoff_max_s=0.01
    )


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """A completed run: artifacts + state store to race against."""
    root = tmp_path_factory.mktemp("dag-seed")
    result = run_dag(_spec(), root, resilience=_fast())
    assert result.ok
    return root, result


def _status_key(root, name: str) -> str:
    by_name = {s.name: s for s in dag_status(_spec(), root)}
    return by_name[name].key


class TestLockContention:
    def test_loser_waits_then_adopts_winners_artifact(self, seeded, tmp_path):
        """A held lock makes the second runner poll; when the holder
        commits and releases, the poller adopts without executing."""
        root, result = seeded
        victim = "report:whatif"
        key = _status_key(root, victim)
        art = Path(result.artifacts[victim])
        payload = art.read_bytes()
        state_record = dict(
            node=victim, rule="report-whatif", status="done",
            sha256=result.digests[victim],
        )

        # regress the node: artifact gone, store says failed — the next
        # runner must execute it, so a held lock actually blocks
        art.unlink()
        with RunJournal(root / STATE_FILE, resume=True) as store:
            store.amend(key, node=victim, rule="report-whatif",
                        status="failed", error="simulated")
        lock = artifact_store(root).lock_path(key)
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text(f"{os.getpid()} winner\n")

        def winner_commits():
            time.sleep(0.25)  # let the loser rack up polls
            art.write_bytes(payload)
            with RunJournal(root / STATE_FILE, resume=True) as store:
                store.amend(key, **state_record)
            lock.unlink()

        thread = threading.Thread(target=winner_commits)
        thread.start()
        try:
            race = run_dag(
                _spec(), root, resilience=_fast(),
                lock_stale_s=30.0, lock_poll_s=0.02,
            )
        finally:
            thread.join()
        assert race.ok
        assert race.statuses[victim] == "clean"  # adopted, not executed
        assert race.stats.executed == 0
        assert race.stats.lock_waits >= 1
        assert race.stats.lock_takeovers == 0
        assert race.digests[victim] == result.digests[victim]

    def test_lock_wait_timeout_raises(self, seeded):
        root, result = seeded
        victim = "report:whatif"
        key = _status_key(root, victim)
        art = Path(result.artifacts[victim])
        payload = art.read_bytes()
        art.unlink()
        lock = artifact_store(root).lock_path(key)
        lock.write_text("0 forever\n")
        try:
            with pytest.raises(DagError, match="timed out"):
                run_dag(
                    _spec(), root, resilience=_fast(),
                    lock_stale_s=600.0, lock_poll_s=0.01, lock_wait_s=0.05,
                )
        finally:
            lock.unlink()
            art.write_bytes(payload)

    def test_stale_lock_from_dead_holder_is_taken_over(self, seeded):
        """A lockfile whose holder was SIGKILLed (old mtime, no process
        behind it) must not wedge the DAG: the next runner claims it."""
        root, result = seeded
        victim = "report:whatif"
        key = _status_key(root, victim)
        art = Path(result.artifacts[victim])
        art.unlink()
        lock = artifact_store(root).lock_path(key)
        lock.write_text("99999 dead-holder\n")
        stale = time.time() - 3600.0
        os.utime(lock, (stale, stale))

        result2 = run_dag(
            _spec(), root, resilience=_fast(),
            lock_stale_s=30.0, lock_poll_s=0.01,
        )
        assert result2.ok
        assert result2.statuses[victim] == "executed"
        assert result2.stats.lock_takeovers == 1
        assert result2.stats.lock_waits >= 1
        assert result2.digests[victim] == result.digests[victim]
        assert not lock.exists()


class TestTwoProcesses:
    def test_cold_race_executes_every_node_exactly_once(self, tmp_path):
        """Two real processes, one empty dag root, full race: every
        node computed by exactly one process, both agree on digests."""
        root = tmp_path / "shared"
        script = (
            "import json, sys\n"
            "from repro.pipeline.dag import SweepSpec, run_dag\n"
            "from repro.exec.resilience import ResilienceConfig\n"
            f"spec = SweepSpec(**{SPEC_KW!r})\n"
            f"res = run_dag(spec, {str(root)!r}, lock_poll_s=0.02,\n"
            "    resilience=ResilienceConfig(max_retries=0,\n"
            "        backoff_base_s=0.001, backoff_max_s=0.01))\n"
            "with open(sys.argv[1], 'w') as fh:\n"
            "    json.dump(res.to_dict(), fh)\n"
            "sys.exit(0 if res.ok else 1)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_FAULT_PLAN", None)
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(out)],
                cwd=Path(__file__).resolve().parents[1], env=env,
            )
            for out in outs
        ]
        for proc in procs:
            assert proc.wait(timeout=180) == 0
        res_a, res_b = (json.loads(out.read_text()) for out in outs)

        # both processes agree on every node's content digest
        assert res_a["digests"] == res_b["digests"]
        assert len(res_a["digests"]) == N_NODES

        # exactly-once: each node was executed by one process and
        # adopted by the other, however the race interleaved
        executed_a = res_a["stats"]["executed"]
        executed_b = res_b["stats"]["executed"]
        assert executed_a + executed_b == N_NODES
        assert res_a["stats"]["clean"] + res_b["stats"]["clean"] == N_NODES
        assert not res_a["errors"] and not res_b["errors"]

        # the source of truth agrees: one done record per node key
        per_key = {}
        for line in (root / STATE_FILE).read_text().splitlines():
            entry = json.loads(line)
            if (entry.get("meta") or {}).get("status") == "done":
                per_key[entry["unit"]] = per_key.get(entry["unit"], 0) + 1
        assert len(per_key) == N_NODES
        assert all(count == 1 for count in per_key.values()), per_key

        # and the artifacts on disk match the recorded digests
        by_name = {s.name: s for s in dag_status(_spec(), root)}
        for node in build_dag(_spec()).topo():
            status = by_name[node.name]
            assert status.state == "clean"
            art = root / "artifacts" / f"{status.key}{node.ext}"
            assert digest_file(art) == res_a["digests"][node.name]
