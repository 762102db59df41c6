"""The crash-consistent content-addressed pipeline DAG (DESIGN.md §7.12).

The contract under test: node keys cover exactly what a node's output
depends on (so incremental runs recompute only dirty cones), each node
commits one self-verifying store entry atomically the moment it
finishes (so a SIGKILL at any instant loses at most in-flight nodes,
and resume reproduces an uninterrupted run bit-identically), and a
failing node poisons only its downstream cone while independent
branches keep going.

The sweep spec here is deliberately tiny (two training counts, two
targets, reduced probe/sample budgets): a cold 15-node run takes a few
seconds serial, and warm/incremental assertions are near-instant.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import faults
from repro.exec.faults import FaultPlan, FaultSpec
from repro.core.fitting import BatchedFitReport
from repro.exec.resilience import ResilienceConfig
from repro.machine import multimaps, profile, systems
from repro.pipeline.dag import (
    SweepSpec,
    artifact_store,
    build_dag,
    dag_status,
    node_key,
    run_dag,
)
from repro.util.errors import DagError
from repro.util.store import LOCKS_DIR, MANIFEST

SPEC_KW = dict(
    app="jacobi",
    train_counts=(4, 8),
    targets=(16, 32),
    accesses_per_probe=2000,
    sample_accesses=20_000,
    max_sample_accesses=200_000,
    code_version="test",
)

#: the 15 nodes of the SPEC_KW graph, in topological order
NODE_NAMES = [
    "collect:4", "collect:8", "collect:16", "fit",
    "extrapolate:16", "convolve:extrap:16", "predict:extrap:16",
    "extrapolate:32", "convolve:extrap:32", "predict:extrap:32",
    "convolve:coll:16", "predict:coll:16", "measure:16",
    "report:table1", "report:whatif",
]


def _spec(**overrides) -> SweepSpec:
    return SweepSpec(**{**SPEC_KW, **overrides})


def _fast(max_retries=0):
    return ResilienceConfig(
        max_retries=max_retries, backoff_base_s=0.001, backoff_max_s=0.01
    )


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One cold serial run shared (read-only) by the tests below."""
    root = tmp_path_factory.mktemp("dag-cold")
    result = run_dag(_spec(), root, resilience=_fast())
    assert result.ok, result.errors
    return root, result


@pytest.fixture()
def warm_root(cold_run, tmp_path):
    """A private copy of the cold root, safe to mutate."""
    root, _result = cold_run
    dest = tmp_path / "dagroot"
    shutil.copytree(root, dest)
    return dest


def _artifact(cold_run, root: Path, name: str) -> Path:
    """``name``'s artifact file in ``root``, a copy of the cold root."""
    cold_root, cold = cold_run
    return root / Path(cold.artifacts[name]).relative_to(cold_root)


def _remove_entry(cold_run, root: Path, name: str) -> None:
    """Delete ``name``'s committed entry from a copy of the cold root."""
    shutil.rmtree(_artifact(cold_run, root, name).parent)


class TestGraphShape:
    def test_build_dag_names_and_topo_order(self):
        dag = build_dag(_spec())
        assert [n.name for n in dag.topo()] == NODE_NAMES
        seen = set()
        for node in dag.topo():
            assert all(p in seen for p in node.parents)
            seen.add(node.name)

    def test_no_table1_drops_validation_arm(self):
        dag = build_dag(_spec(table1=False))
        names = set(dag.nodes)
        assert "report:table1" not in names
        assert "measure:16" not in names
        assert "collect:16" not in names  # only needed for the arm

    def test_spec_canonicalizes_counts(self):
        spec = _spec(train_counts=(8, 4, 8), targets=(32, 16))
        assert spec.train_counts == (4, 8)
        assert spec.targets == (16, 32)

    def test_spec_round_trips_through_dict(self):
        spec = _spec()
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("overrides", [
        dict(train_counts=(4,)),
        dict(targets=()),
        dict(cache_engine="no-such-engine"),
        dict(forms="no-such-forms"),
    ])
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(DagError):
            _spec(**overrides)

    def test_run_in_workers_matches_serial(self, cold_run, tmp_path):
        root, cold = cold_run
        result = run_dag(
            _spec(), tmp_path / "pool", workers=2, resilience=_fast()
        )
        assert result.ok and result.stats.executed == len(NODE_NAMES)
        assert result.digests == cold.digests


class TestNodeKeys:
    def test_identity_exclusions_scope_dirtiness(self):
        """Spec fields dirty exactly the cones they feed.

        Adding a target must not re-key collection or fitting; changing
        the rate trust factor must re-key only extrapolation; changing
        the probe budget must re-key everything.
        """
        base = _spec()
        fake = {name: f"digest-{name}" for name in NODE_NAMES}

        def key(spec, name):
            return node_key(build_dag(spec).nodes[name], spec, fake)

        more_targets = _spec(targets=(16, 32, 64))
        for name in ("collect:4", "fit", "extrapolate:16"):
            assert key(base, name) == key(more_targets, name)

        rtf = _spec(rate_trust_factor=3.0)
        assert key(base, "collect:4") == key(rtf, "collect:4")
        assert key(base, "fit") == key(rtf, "fit")
        assert key(base, "extrapolate:16") != key(rtf, "extrapolate:16")

        probe = _spec(accesses_per_probe=4000)
        for name in ("collect:4", "fit", "extrapolate:16"):
            assert key(base, name) != key(probe, name)

    def test_parent_digests_flow_into_keys(self):
        spec = _spec()
        dag = build_dag(spec)
        fake = {name: f"digest-{name}" for name in NODE_NAMES}
        changed = dict(fake, **{"collect:4": "different"})
        assert (
            node_key(dag.nodes["fit"], spec, fake)
            != node_key(dag.nodes["fit"], spec, changed)
        )
        # a node not downstream of the change keeps its key
        assert (
            node_key(dag.nodes["measure:16"], spec, fake)
            == node_key(dag.nodes["measure:16"], spec, changed)
        )


class TestColdWarmIncremental:
    def test_cold_run_executes_everything(self, cold_run):
        _root, result = cold_run
        assert sorted(result.statuses) == sorted(NODE_NAMES)
        assert set(result.statuses.values()) == {"executed"}
        assert result.stats.executed == len(NODE_NAMES)
        assert result.stats.failed == 0 and result.stats.poisoned == 0
        for name in NODE_NAMES:
            assert Path(result.artifacts[name]).exists()
            assert len(result.digests[name]) == 64
        assert "Table" in result.artifact_json("report:table1")["text"]
        assert "What-if" in result.artifact_json("report:whatif")["text"]

    def test_entries_carry_their_own_digest(self, cold_run):
        """Each node is one directory entry: its artifact plus a manifest
        naming the node and holding the digest its children are keyed
        by.  No second record of node state exists."""
        root, result = cold_run
        nodes = build_dag(_spec()).nodes
        for name in NODE_NAMES:
            art = Path(result.artifacts[name])
            assert art.name == f"artifact{nodes[name].ext}"
            assert sorted(p.name for p in art.parent.iterdir()) == sorted(
                [art.name, MANIFEST]
            )
            meta = json.loads((art.parent / MANIFEST).read_text())
            assert (meta["node"], meta["rule"]) == (name, nodes[name].rule)
            digest = hashlib.sha256(art.read_bytes()).hexdigest()
            assert meta["files"] == {art.name: digest}
            assert result.digests[name] == digest
        assert sorted(artifact_store(root).keys()) == sorted(
            Path(result.artifacts[name]).parent.name for name in NODE_NAMES
        )
        assert list(root.rglob("state.jsonl")) == []

    def test_fresh_run_recomputes_every_node(self, warm_root, cold_run):
        _root, cold = cold_run
        result = run_dag(_spec(), warm_root, fresh=True, resilience=_fast())
        assert result.ok
        assert result.stats.executed == len(NODE_NAMES)
        assert result.digests == cold.digests

    def test_warm_run_is_a_noop_with_identical_digests(self, cold_run):
        root, cold = cold_run
        warm = run_dag(_spec(), root, resilience=_fast())
        assert warm.ok
        assert warm.stats.executed == 0
        assert warm.stats.clean == len(NODE_NAMES)
        assert warm.digests == cold.digests

    def test_adding_a_target_recomputes_only_its_cone(self, warm_root, cold_run):
        _root, cold = cold_run
        result = run_dag(
            _spec(targets=(16, 32, 64)), warm_root, resilience=_fast()
        )
        assert result.ok
        executed = {
            n for n, s in result.statuses.items() if s == "executed"
        }
        # the new target's extrapolation cone, plus the cross-target
        # what-if report — and nothing else
        assert executed == {
            "extrapolate:64", "convolve:extrap:64", "predict:extrap:64",
            "report:whatif",
        }
        # untouched nodes kept their digests
        for name in NODE_NAMES:
            if name != "report:whatif":
                assert result.digests[name] == cold.digests[name]

    def test_deleted_artifact_is_recomputed_bit_identically(
        self, warm_root, cold_run
    ):
        _root, cold = cold_run
        victim = "predict:extrap:32"
        _remove_entry(cold_run, warm_root, victim)
        result = run_dag(_spec(), warm_root, resilience=_fast())
        assert result.ok
        executed = {n for n, s in result.statuses.items() if s == "executed"}
        # identical bytes -> early cutoff: the downstream report stays
        # clean because the recomputed artifact hashes the same
        assert executed == {victim}
        assert result.digests == cold.digests

    def test_fit_bundle_round_trips(self, cold_run):
        _root, result = cold_run
        report = BatchedFitReport.load_npz(Path(result.artifacts["fit"]))
        assert list(report.core_counts) == [4, 8]
        prediction = report.predict_many([16], rate_trust_factor=2.0)
        assert prediction is not None


class TestFaultIsolation:
    def test_failed_node_poisons_only_its_cone(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(key="dag:extrapolate:16", kind="raise",
                      attempts=(1,)),
        ))
        with faults.injected(plan):
            result = run_dag(
                _spec(), tmp_path / "root", resilience=_fast(max_retries=0)
            )
        assert not result.ok
        assert result.statuses["extrapolate:16"] == "failed"
        poisoned = {
            n for n, s in result.statuses.items() if s == "poisoned"
        }
        assert poisoned == {
            "convolve:extrap:16", "predict:extrap:16",
            "report:table1", "report:whatif",
        }
        # independent branches were isolated from the failure
        for name in ("extrapolate:32", "predict:extrap:32",
                     "predict:coll:16", "measure:16"):
            assert result.statuses[name] == "executed"
        assert result.stats.failed == 1 and result.stats.poisoned == 4
        # one violation per failed/poisoned node, typed by cause
        checks = sorted(v.check for v in result.violations)
        assert checks == ["node-failed"] + ["upstream-failed"] * 4
        assert all(v.boundary == "dag" for v in result.violations)

        # the next run heals: only the failed cone recomputes
        healed = run_dag(_spec(), tmp_path / "root", resilience=_fast())
        assert healed.ok
        assert healed.stats.executed == 5 and healed.stats.clean == 10

    def test_node_crash_retries_to_success(self, warm_root, cold_run):
        _root, cold = cold_run
        victim = "extrapolate:16"
        _remove_entry(cold_run, warm_root, victim)
        plan = FaultPlan(specs=(
            FaultSpec(key=f"dag:{victim}", kind="node-crash",
                      attempts=(1,)),
        ))
        with faults.injected(plan):
            result = run_dag(
                _spec(), warm_root, resilience=_fast(max_retries=1)
            )
        assert result.ok
        assert result.statuses[victim] == "executed"
        assert result.stats.node_crashes == 1
        assert result.digests == cold.digests

    def test_corrupt_artifact_is_quarantined_and_recomputed(
        self, warm_root, cold_run
    ):
        _root, cold = cold_run
        victim = "predict:extrap:16"
        plan = FaultPlan(specs=(
            FaultSpec(key=f"dag:{victim}", kind="corrupt-node-artifact",
                      attempts=(1,)),
        ))
        with faults.injected(plan):
            result = run_dag(_spec(), warm_root, resilience=_fast())
        assert result.ok
        assert result.statuses[victim] == "executed"
        assert result.stats.quarantined == 1
        # forensics first: the damaged bytes were moved, not deleted
        quarantined = list((warm_root / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert result.digests == cold.digests
        # the fault rotted the artifact, not the manifest
        (copy,) = quarantined
        victim_art = _artifact(cold_run, warm_root, victim)
        assert (copy / MANIFEST).read_bytes() == (
            victim_art.parent / MANIFEST
        ).read_bytes()
        assert len((copy / victim_art.name).read_bytes()) < len(
            victim_art.read_bytes()
        )
        # and the store converged: the follow-up run is a no-op
        again = run_dag(_spec(), warm_root, resilience=_fast())
        assert again.stats.executed == 0 and again.stats.quarantined == 0

    def test_bit_flipped_artifact_is_quarantined_not_raised(
        self, warm_root, cold_run
    ):
        # regression: one flipped byte inside a compressed .npz member
        # used to escape digest verification as a zlib.error from both
        # the status walk and the run
        _root, cold = cold_run
        victim = "collect:4"
        art = _artifact(cold_run, warm_root, victim)
        data = bytearray(art.read_bytes())
        data[len(data) // 3] ^= 0xFF
        art.write_bytes(bytes(data))
        by_name = {s.name: s for s in dag_status(_spec(), warm_root)}
        assert by_name[victim].state == "stale"
        assert "corrupt" in by_name[victim].reason
        result = run_dag(_spec(), warm_root, resilience=_fast())
        assert result.ok
        assert result.statuses[victim] == "executed"
        assert result.stats.quarantined == 1
        assert result.digests == cold.digests

    def test_stale_lock_is_taken_over(self, warm_root, cold_run):
        _root, cold = cold_run
        victim = "report:whatif"
        _remove_entry(cold_run, warm_root, victim)
        plan = FaultPlan(specs=(
            FaultSpec(key=f"dag:{victim}", kind="stale-lock",
                      attempts=(1,)),
        ))
        with faults.injected(plan):
            result = run_dag(
                _spec(), warm_root, resilience=_fast(),
                lock_stale_s=5.0, lock_poll_s=0.01,
            )
        assert result.ok
        assert result.statuses[victim] == "executed"
        assert result.stats.lock_takeovers == 1
        assert result.stats.lock_waits >= 1
        assert result.digests == cold.digests


class TestKillAndResume:
    def test_sigkill_mid_run_resumes_bit_identically(
        self, cold_run, tmp_path
    ):
        """The acceptance scenario: SIGKILL a run mid-flight, resume,
        and get an uninterrupted run's outputs bit-for-bit.

        A hang fault parks the victim run on the two report nodes once
        all 13 upstream nodes have committed their entries; SIGKILL then
        models a crash at an arbitrary instant (lockfiles still planted,
        store mid-life).  The resumed run must execute exactly the two lost
        nodes and converge to the reference digests.

        The victim plants the report nodes' locks in the wave after its
        13th commit, so the kill also waits for both lockfiles; their
        keys are the reference run's (content addressing).
        """
        root = tmp_path / "dagroot"
        ref_root, reference = cold_run
        report_locks = [
            root / LOCKS_DIR / f"{status.key}.lock"
            for status in dag_status(_spec(), ref_root)
            if status.name.startswith("report:")
        ]
        assert len(report_locks) == 2
        plan = FaultPlan(specs=(
            FaultSpec(key="dag:report:*", kind="hang", seconds=600.0),
        ))
        script = (
            "import sys\n"
            "from repro.pipeline.dag import SweepSpec, run_dag\n"
            "from repro.exec.resilience import ResilienceConfig\n"
            f"spec = SweepSpec(**{SPEC_KW!r})\n"
            f"run_dag(spec, {str(root)!r}, resilience=ResilienceConfig("
            "max_retries=0, backoff_base_s=0.001, backoff_max_s=0.01))\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH="src",
            REPRO_FAULT_PLAN=plan.to_json(),
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=Path(__file__).resolve().parents[1], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            store = artifact_store(root)
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if len(store.keys()) >= 13 and all(  # all but the reports
                    lock.exists() for lock in report_locks
                ):
                    break
                assert proc.poll() is None, "victim run exited early"
                time.sleep(0.05)
            else:
                pytest.fail("victim run never reached the report nodes")
            proc.kill()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

        # resume (no fault plan): exactly the in-flight nodes redo,
        # taking over the locks the killed process left planted
        resumed = run_dag(
            _spec(), root, resilience=_fast(),
            lock_stale_s=2.0, lock_poll_s=0.02,
        )
        assert resumed.ok
        executed = {n for n, s in resumed.statuses.items() if s == "executed"}
        assert executed == {"report:table1", "report:whatif"}
        assert resumed.stats.clean == 13
        assert resumed.stats.lock_takeovers == 2
        # bit-identical to an uninterrupted run
        assert resumed.digests == reference.digests
        # convergence: one more run is a no-op and status is all-clean
        again = run_dag(_spec(), root, resilience=_fast())
        assert again.stats.executed == 0
        assert all(s.state == "clean" for s in dag_status(_spec(), root))


class TestDagStatus:
    def test_never_built(self, tmp_path):
        statuses = dag_status(_spec(), tmp_path / "empty")
        assert [s.name for s in statuses] == NODE_NAMES
        nodes = build_dag(_spec()).nodes
        for s in statuses:
            if nodes[s.name].parents:
                assert s.state == "blocked"
                assert "not clean" in s.reason
            else:
                assert s.state == "stale"
                assert s.reason == "never built"

    def test_all_clean_after_run(self, cold_run):
        root, result = cold_run
        statuses = dag_status(_spec(), root)
        assert all(s.state == "clean" for s in statuses)
        by_name = {s.name: s for s in statuses}
        # status keys resolve to the same content addresses the run used
        for name in NODE_NAMES:
            art = Path(result.artifacts[name])
            assert art.parent.name == by_name[name].key

    def test_missing_artifact_blocks_descendants(self, warm_root, cold_run):
        victim = "extrapolate:32"
        _remove_entry(cold_run, warm_root, victim)
        by_name = {s.name: s for s in dag_status(_spec(), warm_root)}
        # no record outlives its entry: a deleted node was never built
        assert by_name[victim].state == "stale"
        assert by_name[victim].reason == "never built"
        assert by_name["convolve:extrap:32"].state == "blocked"
        assert by_name["report:table1"].state == "clean"  # other cone

    def test_corrupt_artifact_reported(self, warm_root, cold_run):
        victim = "predict:coll:16"
        art = _artifact(cold_run, warm_root, victim)
        art.write_bytes(art.read_bytes()[:10])
        by_name = {s.name: s for s in dag_status(_spec(), warm_root)}
        assert by_name[victim].state == "stale"
        assert "corrupt" in by_name[victim].reason
        # a pure read: the damaged entry stays where it was
        assert art.exists() and not (warm_root / "quarantine").exists()

    def test_failed_node_reported_until_it_commits(self, warm_root, cold_run):
        victim = "extrapolate:16"
        _remove_entry(cold_run, warm_root, victim)
        plan = FaultPlan(specs=(
            FaultSpec(key=f"dag:{victim}", kind="raise", attempts=(1,),
                      message="boom"),
        ))
        with faults.injected(plan):
            failed = run_dag(
                _spec(), warm_root, resilience=_fast(max_retries=0)
            )
        assert failed.statuses[victim] == "failed"
        by_name = {s.name: s for s in dag_status(_spec(), warm_root)}
        assert by_name[victim].state == "failed"
        assert by_name[victim].reason.startswith("failed last run: ")
        assert "boom" in by_name[victim].reason
        assert by_name["convolve:extrap:16"].state == "blocked"
        # the healing run commits the node and drops its failure record
        healed = run_dag(_spec(), warm_root, resilience=_fast())
        assert healed.ok
        assert all(s.state == "clean" for s in dag_status(_spec(), warm_root))
        assert list((warm_root / "failures").iterdir()) == []

    def test_config_change_explained(self, warm_root):
        by_name = {
            s.name: s
            for s in dag_status(_spec(rate_trust_factor=9.0), warm_root)
        }
        assert by_name["collect:4"].state == "clean"
        assert by_name["fit"].state == "clean"
        assert by_name["extrapolate:16"].state == "stale"
        assert by_name["extrapolate:16"].reason == "inputs or config changed"
        assert by_name["convolve:extrap:16"].state == "blocked"


class TestMachineProfile:
    def test_added_target_loads_the_profile_from_the_root(
        self, warm_root, monkeypatch
    ):
        """Convolve nodes keep the machine profile in the DAG root's
        profile store, so a later process never re-runs the probe."""
        monkeypatch.setattr(systems, "_PROFILE_CACHE", {})
        first = run_dag(
            _spec(targets=(16, 32, 64)), warm_root, resilience=_fast()
        )
        assert first.statuses["convolve:extrap:64"] == "executed"

        def no_probe(*args, **kwargs):
            raise AssertionError("MultiMAPS probe ran")

        monkeypatch.setattr(systems, "_PROFILE_CACHE", {})
        monkeypatch.setattr(multimaps, "run_multimaps", no_probe)
        monkeypatch.setattr(profile, "run_multimaps", no_probe)
        result = run_dag(
            _spec(targets=(16, 32, 64, 128)), warm_root, resilience=_fast()
        )
        assert result.ok, result.errors
        assert result.statuses["convolve:extrap:128"] == "executed"
