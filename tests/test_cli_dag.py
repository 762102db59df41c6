"""End-to-end tests: the ``repro dag`` CLI surface.

One real ``dag run`` over a tiny sweep backs every assertion: report
text on stdout, ``dag.*`` counters in the exported metrics, the run
manifest's ``dag`` document, ``dag status`` exit codes and rendering,
and argument validation.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.metrics import REGISTRY
from tests.schema_utils import assert_valid

SCHEMA_DIR = Path(__file__).parent / "schemas"
MANIFEST_SCHEMA = json.loads((SCHEMA_DIR / "manifest.schema.json").read_text())

N_NODES = 15  #: the --train 4,8 --targets 16,32 graph, table1 included


def _spec_args(dag_root: Path) -> list:
    return [
        "--app", "jacobi", "--train", "4,8", "--targets", "16,32",
        "--accesses-per-probe", "2000", "--sample-accesses", "20000",
        "--max-sample-accesses", "200000", "--code-version", "test",
        "--dag-root", str(dag_root),
    ]


def _run(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def cold_cli_run(tmp_path_factory):
    """One cold ``dag run`` shared by every assertion below."""
    base = tmp_path_factory.mktemp("cli-dag")
    dag_root = base / "dagroot"
    run_dir = base / "run1"
    run_dir.mkdir()
    rc, stdout = _run([
        "dag", "run", *_spec_args(dag_root), "--workers", "0",
        "--metrics-out", str(run_dir / "metrics.json"),
        "--manifest-out", str(run_dir / "manifest.json"),
    ])
    return dag_root, run_dir, rc, stdout


class TestDagRun:
    def test_exit_code_and_report_text(self, cold_cli_run):
        _root, _run_dir, rc, stdout = cold_cli_run
        assert rc == 0
        assert "Extrap." in stdout and "Coll." in stdout  # Table I
        assert "What-if sweep" in stdout

    def test_metrics_carry_exact_dag_tallies(self, cold_cli_run):
        _root, run_dir, _rc, _stdout = cold_cli_run
        doc = json.loads((run_dir / "metrics.json").read_text())
        counters = doc["counters"]
        assert counters["dag.executed"] == N_NODES
        assert doc["gauges"]["dag.nodes_total"] == N_NODES
        for name in ("dag.failed", "dag.poisoned", "dag.quarantined",
                     "dag.lock_takeovers", "dag.node_crashes"):
            assert counters.get(name, 0) == 0

    def test_manifest_records_the_dag_document(self, cold_cli_run):
        _root, run_dir, _rc, _stdout = cold_cli_run
        doc = json.loads((run_dir / "manifest.json").read_text())
        assert_valid(doc, MANIFEST_SCHEMA, "manifest")
        assert doc["command"] == "dag-run"
        dag = doc["dag"]
        assert dag["spec"]["app"] == "jacobi"
        assert len(dag["statuses"]) == N_NODES
        assert set(dag["statuses"].values()) == {"executed"}
        assert dag["stats"]["executed"] == N_NODES
        assert dag["errors"] == {}
        # report artifacts are digested into the manifest outputs
        assert {"table1.txt", "whatif.txt"} <= set(doc["outputs"])

    def test_warm_rerun_is_a_noop_and_still_prints(self, cold_cli_run, tmp_path):
        root, _run_dir, _rc, _stdout = cold_cli_run
        REGISTRY.reset()
        rc, stdout = _run([
            "dag", "run", *_spec_args(root), "--workers", "0",
            "--metrics-out", str(tmp_path / "metrics.json"),
        ])
        assert rc == 0
        assert "What-if sweep" in stdout  # clean reports still rendered
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["counters"].get("dag.executed", 0) == 0
        assert doc["counters"]["dag.clean"] == N_NODES


class TestDagStatus:
    def test_dirty_graph_exits_nonzero(self, tmp_path):
        rc, stdout = _run([
            "dag", "status", *_spec_args(tmp_path / "never-run"),
        ])
        assert rc == 1
        assert "stale" in stdout and "blocked" in stdout

    def test_clean_graph_exits_zero(self, cold_cli_run):
        root, _run_dir, _rc, _stdout = cold_cli_run
        rc, stdout = _run(["dag", "status", *_spec_args(root)])
        assert rc == 0
        assert stdout.count("clean") == N_NODES
        assert "Reason" not in stdout

    def test_explain_adds_reasons(self, cold_cli_run):
        root, _run_dir, _rc, _stdout = cold_cli_run
        rc, stdout = _run([
            "dag", "status", *_spec_args(root), "--explain",
        ])
        assert rc == 0
        assert "Reason" in stdout
        assert "artifact matches committed digest" in stdout

    def test_json_document(self, cold_cli_run):
        root, _run_dir, _rc, _stdout = cold_cli_run
        rc, stdout = _run([
            "dag", "status", *_spec_args(root), "--json",
        ])
        assert rc == 0
        doc = json.loads(stdout)
        assert len(doc) == N_NODES
        assert all(s["state"] == "clean" for s in doc)
        assert all(len(s["key"]) == 64 for s in doc)

    def test_config_change_shows_the_dirty_cone(self, cold_cli_run):
        root, _run_dir, _rc, _stdout = cold_cli_run
        rc, stdout = _run([
            "dag", "status", *_spec_args(root),
            "--rate-trust-factor", "9.0", "--json",
        ])
        assert rc == 1
        states = {s["name"]: s["state"] for s in json.loads(stdout)}
        assert states["collect:4"] == "clean"
        assert states["fit"] == "clean"
        assert states["extrapolate:16"] == "stale"
        assert states["convolve:extrap:16"] == "blocked"


class TestDagUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["dag", "run", "--app", "jacobi", "--train", "4,8",
         "--targets", "16", "--lock-poll", "0"],
        ["dag", "run", "--app", "jacobi", "--train", "4",
         "--targets", "16"],
        ["dag", "run", "--app", "no-such-app", "--train", "4,8",
         "--targets", "16"],
        ["dag", "status", "--app", "jacobi", "--train", "4,8",
         "--targets", "16", "--machine", "no-such-machine"],
    ])
    def test_bad_arguments_exit_2(self, argv, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + ["--dag-root", str(tmp_path / "root")])
        assert rc == 2
