"""``repro serve`` end-to-end: validation, load-gen, JSONL protocol.

Flag validation must exit 2 with one actionable line *before* any
fitting starts; the load-gen path must print the service-rate summary
and leave a persisted model behind; the stdin protocol must answer
well-formed requests and reject malformed ones per line without dying.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main

BASE = ["serve", "--app", "jacobi", "--train", "4,8,16"]

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestServeValidation:
    def test_unwritable_registry_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        rc, _, err = _run(
            capsys, BASE + ["--registry", str(blocker / "models")]
        )
        assert rc == 2
        assert "--registry" in err and "not writable" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("window", ["0", "-1.5"])
    def test_non_positive_batch_window(self, tmp_path, capsys, window):
        rc, _, err = _run(
            capsys,
            BASE + ["--registry", str(tmp_path), "--batch-window", window],
        )
        assert rc == 2
        assert "--batch-window must be positive" in err

    @pytest.mark.parametrize(
        "flag,value,needle",
        [
            ("--batch-max", "0", "--batch-max"),
            ("--queue-depth", "0", "--queue-depth"),
            ("--mem-models", "0", "--mem-models"),
            ("--load-gen", "0", "--load-gen"),
        ],
    )
    def test_non_positive_knobs(self, tmp_path, capsys, flag, value, needle):
        rc, _, err = _run(
            capsys, BASE + ["--registry", str(tmp_path), flag, value]
        )
        assert rc == 2 and needle in err

    def test_unknown_app_checked_before_fitting(self, tmp_path, capsys):
        rc, _, err = _run(
            capsys,
            ["serve", "--app", "nope", "--train", "4,8,16",
             "--registry", str(tmp_path / "reg")],
        )
        assert rc == 2 and "unknown application" in err
        # validation failed before the registry was even created
        assert not (tmp_path / "reg").exists()


class TestServeLoadGen:
    def test_load_gen_reports_and_persists(self, tmp_path, capsys):
        registry = tmp_path / "reg"
        manifest = tmp_path / "run_manifest.json"
        rc, out, _ = _run(
            capsys,
            BASE
            + [
                "--registry", str(registry),
                "--load-gen", "120",
                "--load-targets", "32,64,128",
                "--manifest-out", str(manifest),
            ],
        )
        assert rc == 0
        line = next(
            ln for ln in out.splitlines() if ln.startswith("serve-load:")
        )
        assert "qps=" in line and "p95_ms=" in line and "mean_batch=" in line
        assert "rejected=0" in line
        # one model landed in the registry's sharded tree
        assert len(list(registry.glob("*/*/meta.json"))) == 1
        # the manifest digests the serve summary artifact
        doc = json.loads(manifest.read_text())
        assert "serve_summary.json" in doc["outputs"]

    def test_load_mean_batch_is_queries_per_executed_batch(
        self, tmp_path, capsys
    ):
        summary = tmp_path / "summary.json"
        rc, out, _ = _run(
            capsys,
            BASE
            + [
                "--registry", str(tmp_path / "reg"),
                "--load-gen", "200",
                "--load-targets", "32,64,128",
                "--summary-out", str(summary),
            ],
        )
        assert rc == 0
        line = next(
            ln for ln in out.splitlines() if ln.startswith("serve-load:")
        )
        printed = float(line.split("mean_batch=")[1].split()[0])
        doc = json.loads(summary.read_text())
        batcher = doc["batcher"]
        assert batcher["batches"] >= 1
        assert printed == doc["load"]["mean_batch"]
        assert printed == round(batcher["mean_batch"], 3)
        # memo hits count 1 each in the per-answer mean, and only there
        assert doc["load"]["mean_answer_batch"] < printed

    def test_second_run_reuses_the_registry(self, tmp_path, capsys):
        registry = tmp_path / "reg"
        argv = BASE + [
            "--registry", str(registry),
            "--load-gen", "40",
            "--load-targets", "32,64",
        ]
        assert _run(capsys, argv)[0] == 0
        assert _run(capsys, argv)[0] == 0
        # same spec, same digest: still exactly one persisted model
        assert len(list(registry.glob("*/*/meta.json"))) == 1


class TestServeSummaryOut:
    def test_summary_out_records_every_layer(self, tmp_path, capsys):
        summary_path = tmp_path / "serve_summary.json"
        rc, _, _ = _run(
            capsys,
            BASE
            + [
                "--registry", str(tmp_path / "reg"),
                "--load-gen", "40",
                "--load-targets", "32,64",
                "--summary-out", str(summary_path),
            ],
        )
        assert rc == 0
        doc = json.loads(summary_path.read_text())
        assert set(doc) >= {
            "engine", "batcher", "registry", "latency", "resilience", "load"
        }
        assert doc["load"]["n_queries"] == 40
        assert doc["load"]["rejected"] == 0 and doc["load"]["errors"] == 0
        # a clean run: the resilience tally is all zeros
        res = doc["resilience"]
        assert res["batch_failures"] == 0 and res["breaker_opens"] == 0
        assert res["deadline_expired"] == 0 and res["transitions"] == []
        # accounting closes: every generated query is accounted for
        eng = doc["engine"]
        assert eng["queries"] == (
            eng["answered"] + eng["failed"] + eng["rejected"]
        )
        assert eng["answered"] == 40

    def test_unwritable_summary_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        rc, _, err = _run(
            capsys,
            BASE
            + [
                "--registry", str(tmp_path / "reg"),
                "--load-gen", "8",
                "--summary-out", str(blocker / "summary.json"),
            ],
        )
        assert rc == 2
        assert "--summary-out" in err and "Traceback" not in err


class TestServeTelemetry:
    def test_flight_recorder_books_close_exactly(self, tmp_path, capsys):
        """The acceptance contract: interval-summed recorder counters
        equal the serve summary's end-of-run tallies *exactly*."""
        from repro.obs.telemetry import (
            merged_hist, read_flight_records, sum_counters,
        )
        from tests.check_obs_artifacts import check_artifacts

        flight = tmp_path / "flight.jsonl"
        prom = tmp_path / "metrics.prom"
        summary = tmp_path / "serve_summary.json"
        manifest = tmp_path / "run_manifest.json"
        rc, out, _ = _run(
            capsys,
            BASE
            + [
                "--registry", str(tmp_path / "reg"),
                "--load-gen", "80",
                "--load-targets", "32,64,128",
                "--telemetry-out", str(flight),
                "--prom-out", str(prom),
                "--telemetry-interval", "25",
                "--summary-out", str(summary),
                "--manifest-out", str(manifest),
            ],
        )
        assert rc == 0
        records = read_flight_records(flight)
        assert records and records[-1]["final"]
        assert check_artifacts(telemetry=flight) == []
        # exact telescoping against the summary document
        totals = sum_counters(records)
        eng = json.loads(summary.read_text())["engine"]
        for field in ("queries", "answered", "failed", "rejected"):
            assert totals.get(f"serve.{field}", 0) == eng[field], field
        # every answered query's latency landed in exactly one interval
        assert merged_hist(records, "serve.latency_s").count == (
            eng["answered"]
        )
        # the Prometheus scrape file was left behind, parseable
        text = prom.read_text()
        assert "# TYPE repro_serve_queries_total counter" in text
        assert "# TYPE repro_serve_latency_seconds histogram" in text
        assert f"repro_serve_queries_total {eng['queries']}" in text
        # both artifacts are digested into the manifest
        outputs = json.loads(manifest.read_text())["outputs"]
        assert "telemetry.jsonl" in outputs and "metrics.prom" in outputs

    def test_unwritable_telemetry_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        rc, _, err = _run(
            capsys,
            BASE
            + [
                "--registry", str(tmp_path / "reg"),
                "--load-gen", "8",
                "--telemetry-out", str(blocker / "flight.jsonl"),
            ],
        )
        assert rc == 2
        assert "--telemetry-out" in err and "Traceback" not in err

    @pytest.mark.parametrize("interval", ["0", "-5"])
    def test_non_positive_interval_exits_2(self, tmp_path, capsys, interval):
        rc, _, err = _run(
            capsys,
            BASE
            + [
                "--registry", str(tmp_path / "reg"),
                "--load-gen", "8",
                "--telemetry-out", str(tmp_path / "flight.jsonl"),
                "--telemetry-interval", interval,
            ],
        )
        assert rc == 2
        assert "--telemetry-interval" in err and "Traceback" not in err


class TestServeDrain:
    def _spawn_serve(self, registry, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--app", "jacobi", "--train", "4,8,16",
                "--registry", str(registry), *extra,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(REPO_ROOT),
            env=env,
        )

    @staticmethod
    def _readline(proc, timeout_s=240.0):
        """One stdout line, or kill the subprocess and fail loudly."""
        box = {}

        def read():
            box["line"] = proc.stdout.readline()

        t = threading.Thread(target=read, daemon=True)
        t.start()
        t.join(timeout_s)
        if t.is_alive():
            proc.kill()
            _, err = proc.communicate()
            raise AssertionError(f"serve produced no answer; stderr:\n{err}")
        return box["line"]

    def test_sigterm_answers_inflight_and_exits_zero(self, tmp_path, capsys, monkeypatch):
        registry = tmp_path / "reg"
        # warm the registry in-process so the subprocess loads, not fits
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(BASE + ["--registry", str(registry)]) == 0
        capsys.readouterr()

        summary_path = tmp_path / "summary.json"
        proc = self._spawn_serve(
            registry, "--summary-out", str(summary_path)
        )
        try:
            proc.stdin.write('{"id": 1, "target": 64}\n')
            proc.stdin.flush()
            doc = json.loads(self._readline(proc))
            assert doc["ok"] and doc["id"] == 1
            proc.send_signal(signal.SIGTERM)
            # wait WITHOUT closing stdin: an EOF would race the signal
            # and exit through the non-drain path
            proc.wait(timeout=120)
            err = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdin.close()
            proc.stdout.close()
            proc.stderr.close()
        # the drain contract: exit 0, with a final stderr summary line
        assert proc.returncode == 0
        drain = next(
            ln for ln in err.splitlines() if ln.startswith("serve-drain:")
        )
        assert "answered=1" in drain
        assert "deadline_expired=0" in drain
        # and the summary artifact still lands on the way out
        summary = json.loads(summary_path.read_text())
        assert summary["engine"]["answered"] == 1


class TestServeStdin:
    def _serve_stdin(self, tmp_path, capsys, monkeypatch, lines):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(f"{ln}\n" for ln in lines))
        )
        rc, out, err = _run(
            capsys, BASE + ["--registry", str(tmp_path / "reg")]
        )
        return rc, [json.loads(ln) for ln in out.splitlines() if ln]

    def test_answers_requests_and_isolates_bad_lines(
        self, tmp_path, capsys, monkeypatch
    ):
        rc, docs = self._serve_stdin(
            tmp_path,
            capsys,
            monkeypatch,
            [
                '{"id": 1, "target": 64}',
                "not json at all",
                '{"id": 3, "target": -5}',
                '{"id": 4, "target": 128, "tenant": "t2"}',
                '{"id": 5, "target": 64.9}',
                '{"id": 6, "target": true}',
                '{"id": 7, "target": 1e3}',
                '{"id": 8, "target": "64"}',
            ],
        )
        assert rc == 0
        by_id = {doc["id"]: doc for doc in docs}
        assert by_id[1]["ok"] and by_id[1]["target"] == 64
        assert set(by_id[1]["mean_hit_rates"]) == {"L1", "L2", "L3"}
        assert len(by_id[1]["features_sha256"]) == 64
        assert by_id[4]["ok"]
        assert not by_id[3]["ok"] and "positive" in by_id[3]["error"]
        bad = [d for d in docs if d["id"] is None]
        assert len(bad) == 1 and not bad[0]["ok"]
        # 64.9 and true are refused, not answered as targets 64 and 1
        for req_id, shown in ((5, "64.9"), (6, "true")):
            assert not by_id[req_id]["ok"]
            assert f"target must be an integer, got {shown}" in (
                by_id[req_id]["error"]
            )
        # an integral float and a numeric string are still targets
        assert by_id[7]["ok"] and by_id[7]["target"] == 1000
        assert by_id[8]["ok"] and by_id[8]["target"] == 64
        assert by_id[8]["features_sha256"] == by_id[1]["features_sha256"]

    def test_feature_summary_is_digested_once_per_model_and_target(
        self, monkeypatch
    ):
        from types import SimpleNamespace

        import numpy as np

        from repro.cli import serve as cli_serve

        monkeypatch.setattr(cli_serve, "SUMMARY_ENTRIES", 2)
        schema = SimpleNamespace(hit_rate_slice=slice(0, 1), level_names=("L1",))

        def summary(target, fill):
            answer = SimpleNamespace(
                model="m", target=target, values=np.full((3, 2), fill)
            )
            return cli_serve._feature_summary(answer, schema, summaries)

        summaries = {}
        first = summary(64, 0.5)
        assert first["mean_hit_rates"] == {"L1": 0.5}
        # the same key returns the kept view: its bytes are the same
        assert summary(64, 0.25) is first
        summary(128, 0.5)
        summary(256, 0.5)  # past the bound: the oldest view is dropped
        assert list(summaries) == [("m", 128), ("m", 256)]

    def test_answers_are_bit_identical_across_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        lines = ['{"id": 1, "target": 64}']
        _, first = self._serve_stdin(tmp_path, capsys, monkeypatch, lines)
        rc, second = self._serve_stdin(tmp_path, capsys, monkeypatch, lines)
        assert rc == 0
        # run 1 fitted the model, run 2 served it from the registry:
        # the feature digests must agree bit for bit
        assert (
            first[0]["features_sha256"] == second[0]["features_sha256"]
        )


#: one request of each shape: hits and misses, two tenants, a runtime
#: query, two malformed lines and a last line with no newline
PROTOCOL_LINES = [
    '{"id": 1, "target": 64}',
    '{"id": 2, "target": 128, "tenant": "t2"}',
    '{"id": 3, "target": 64}',
    "not json",
    '{"id": 5, "target": 32, "kind": "runtime"}',
    "[64]",
    '{"id": 6, "target": 128}',
]
PROTOCOL_INPUT = "\n".join(PROTOCOL_LINES)


def _answers(out: str) -> list:
    """Answer lines less their timing fields, in a stable order."""
    docs = [json.loads(ln) for ln in out.splitlines() if ln]
    for doc in docs:
        doc.pop("latency_ms", None)
        doc.pop("batch_size", None)
    return sorted(docs, key=lambda d: json.dumps(d, sort_keys=True))


@pytest.fixture(scope="module")
def fitted_registry(tmp_path_factory):
    """A registry holding the served jacobi model, so a server loads it."""
    registry = tmp_path_factory.mktemp("serve") / "reg"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(""))
        assert main(BASE + ["--registry", str(registry)]) == 0
    return registry


def _serve_argv(registry, *extra):
    return [
        sys.executable, "-m", "repro", *BASE, "--registry", str(registry),
        *extra,
    ]


def _serve_env():
    return dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))


class _ChunkedStdin:
    """A stdin epoll cannot watch: each read hands out the next chunk,
    and notes the names of the threads alive at that moment."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)
        self.threads: set = set()

    def fileno(self):
        raise io.UnsupportedOperation("no file descriptor")

    def read(self, n=-1):
        self.threads.update(t.name for t in threading.enumerate())
        return self.chunks.pop(0) if self.chunks else ""


class TestServeStdinSources:
    """Every kind of stdin feeds the same line handler."""

    def test_pipe_file_and_memory_give_the_same_answers(
        self, fitted_registry, tmp_path, capsys, monkeypatch
    ):
        # a pipe: epoll watches it; one line is split across two writes
        proc = subprocess.Popen(
            _serve_argv(fitted_registry), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=str(REPO_ROOT), env=_serve_env(),
        )
        head, rest = PROTOCOL_INPUT.encode().split(b'"tenant"', 1)
        proc.stdin.write(head)
        proc.stdin.flush()
        time.sleep(0.2)
        out, err = proc.communicate(b'"tenant"' + rest, timeout=240)
        assert proc.returncode == 0, err.decode()
        piped = _answers(out.decode())

        # a regular file: epoll refuses it, so it is read in chunks
        requests = tmp_path / "requests.jsonl"
        requests.write_text(PROTOCOL_INPUT)
        with requests.open("rb") as fh:
            done = subprocess.run(
                _serve_argv(fitted_registry), stdin=fh,
                capture_output=True, cwd=str(REPO_ROOT), env=_serve_env(),
                timeout=240,
            )
        assert done.returncode == 0, done.stderr.decode()
        from_file = _answers(done.stdout.decode())

        # an in-memory text stream, in process
        monkeypatch.setattr("sys.stdin", io.StringIO(PROTOCOL_INPUT))
        rc, out, _ = _run(capsys, BASE + ["--registry", str(fitted_registry)])
        assert rc == 0
        in_memory = _answers(out)

        assert piped == from_file == in_memory
        assert len(piped) == len(PROTOCOL_LINES)
        bad = [d for d in piped if not d["ok"]]
        assert [d["id"] for d in bad] == [None, None]
        assert any("JSON object" in d["error"] for d in bad)
        ok = {d["id"]: d for d in piped if d["ok"]}
        assert sorted(ok) == [1, 2, 3, 5, 6]
        assert ok[1]["features_sha256"] == ok[3]["features_sha256"]
        assert ok[2]["features_sha256"] == ok[6]["features_sha256"]
        assert ok[5]["runtime_s"] > 0
        assert "Traceback" not in err.decode() + done.stderr.decode()

    def test_dev_null_exits_zero_with_no_answers(self, fitted_registry):
        done = subprocess.run(
            _serve_argv(fitted_registry), stdin=subprocess.DEVNULL,
            capture_output=True, cwd=str(REPO_ROOT), env=_serve_env(),
            timeout=240,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == b""

    def test_closed_stdin_is_end_of_input(self, fitted_registry):
        # `0<&-`: the interpreter starts with no fd 0 and no sys.stdin
        done = subprocess.run(
            ["sh", "-c", 'exec "$0" "$@" 0<&-',
             *_serve_argv(fitted_registry)],
            capture_output=True, cwd=str(REPO_ROOT), env=_serve_env(),
            timeout=240,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == b""
        assert b"Traceback" not in done.stderr

    def test_split_lines_and_a_last_line_without_newline(
        self, fitted_registry, capsys, monkeypatch
    ):
        stdin = _ChunkedStdin(
            '{"id": 1, "tar', 'get": 64}\n{"id": 2, "target": 32}'
        )
        monkeypatch.setattr("sys.stdin", stdin)
        before = {t.name for t in threading.enumerate()}
        rc, out, _ = _run(capsys, BASE + ["--registry", str(fitted_registry)])
        assert rc == 0
        docs = {d["id"]: d for d in map(json.loads, out.splitlines())}
        assert docs[1]["ok"] and docs[1]["target"] == 64
        assert docs[2]["ok"] and docs[2]["target"] == 32
        # serving read stdin from the loop: it started no thread
        assert stdin.threads <= before
        assert "serve-stdin" not in stdin.threads

    def test_non_utf8_line_gets_an_error_answer(
        self, fitted_registry, capsys, monkeypatch
    ):
        raw = b'{"id": 1, "target": 64, "tenant": "\xff\xfe"}\n{"id": 2, "target": 64}\n'
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
        rc, out, _ = _run(capsys, BASE + ["--registry", str(fitted_registry)])
        assert rc == 0
        docs = [json.loads(ln) for ln in out.splitlines()]
        assert len(docs) == 2
        bad = [d for d in docs if not d["ok"]]
        assert len(bad) == 1 and bad[0]["id"] is None
        assert [d["id"] for d in docs if d["ok"]] == [2]

    def test_closed_stdout_stops_serving_with_one_line(
        self, fitted_registry, tmp_path
    ):
        summary = tmp_path / "summary.json"
        manifest = tmp_path / "manifest.json"
        proc = subprocess.Popen(
            _serve_argv(
                fitted_registry, "--summary-out", str(summary),
                "--manifest-out", str(manifest),
            ),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, cwd=str(REPO_ROOT), env=_serve_env(),
        )
        try:
            proc.stdin.write(b'{"id": 1, "target": 64}\n')
            proc.stdin.flush()
            assert json.loads(TestServeDrain._readline(proc))["ok"]
            proc.stdout.close()  # the client stops reading answers
            proc.stdin.write(b'{"id": 2, "target": 64}\n')
            proc.stdin.flush()
            # the server ends on the failed write, with stdin still open
            proc.wait(timeout=120)
            err = proc.stderr.read().decode()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdin.close()
            proc.stderr.close()
        assert proc.returncode == 1
        lines = [ln for ln in err.splitlines() if ln.strip()]
        assert len(lines) == 1 and "stdout" in lines[0], err
        assert "Traceback" not in err
        # the run's artifacts are still written
        engine = json.loads(summary.read_text())["engine"]
        assert engine["queries"] == engine["answered"] == 2
        assert "serve_summary.json" in json.loads(manifest.read_text())["outputs"]
