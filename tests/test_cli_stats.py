"""``repro stats``: the flight-recorder analysis surface.

The human rendering is golden-tested against a synthetic recorder with
hand-checkable numbers; ``--json`` exposes the same digest as a machine
document; validation failures exit 2 with one actionable line; a torn
or empty recorder degrades to a message, never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.telemetry import StreamingHistogram

TAG = "ab12cd34ef56"

GOLDEN = """\
flight recorder: 3 records over 1.500s (complete)
totals: queries=11 answered=9 failed=2 rejected=0 memo_hits=1 \
batches=4 mean_batch=2.5 registry_hit_rate=0.8
loop lag: mean=1.5ms max=2.0ms

rate timeline
========================================================
seq | t_s   | dt_s  | answered | qps   | p50_ms | p95_ms
----+-------+-------+----------+-------+--------+-------
0   | 0.000 | 0.000 | 0        | 0.000 | -      | -
1   | 1.000 | 1.000 | 8        | 8.000 | 4.000  | 4.000
2   | 1.500 | 0.500 | 1        | 2.000 | 8.000  | 8.000

tenants
=======================================================
tenant | queries | answered | failed | rejected | waits
-------+---------+----------+--------+----------+------
acme   | 11      | 9        | 2      | 0        | 0

breaker transitions
====================================
seq | t_s   | transition
----+-------+-----------------------
1   | 1.000 | ab12cd34ef56:open
2   | 1.500 | ab12cd34ef56:half_open
2   | 1.500 | ab12cd34ef56:closed
breaker states: ab12cd34ef56:closed

slowest queries
======================================================
latency_ms | tenant | target | kind     | model
-----------+--------+--------+----------+-------------
12.500     | acme   | 64     | features | ab12cd34ef56
"""


def _single_value_hist(value: float, n: int = 1) -> dict:
    hist = StreamingHistogram()
    for _ in range(n):
        hist.observe(value)
    return hist.to_dict()


def _recorder_records() -> list:
    """Three intervals with hand-checkable numbers: a quiet baseline,
    a busy interval where the breaker opens, a final interval where it
    recovers.  Latency hists hold one repeated value so the quantile
    interpolation clamps and p50/p95 are exact round milliseconds."""
    return [
        {"schema": 1, "seq": 0, "t_s": 0.0, "wall_time": 1.7e9,
         "interval_s": 0.0, "final": False, "counters": {}, "gauges": {},
         "hists": {}},
        {"schema": 1, "seq": 1, "t_s": 1.0, "wall_time": 1.7e9 + 1,
         "interval_s": 1.0, "final": False, "loop_lag_s": 0.002,
         "counters": {
             "serve.queries": 10, "serve.answered": 8, "serve.failed": 2,
             "serve.batch.batches": 4, "serve.batch.queries": 10,
             "serve.tenant.queries.acme": 10,
             "serve.tenant.answered.acme": 8,
             "serve.tenant.failed.acme": 2,
             "serve.registry.mem_hits": 3, "serve.registry.misses": 1,
         },
         "gauges": {"serve.queue_depth.acme": 2.0},
         "hists": {"serve.latency_s": _single_value_hist(0.004, 2)},
         "breakers": {TAG: "open"}, "transitions": [f"{TAG}:open"],
         "slow_queries": [
             {"latency_ms": 12.5, "tenant": "acme", "target": 64,
              "kind": "features", "model": TAG},
         ]},
        {"schema": 1, "seq": 2, "t_s": 1.5, "wall_time": 1.7e9 + 1.5,
         "interval_s": 0.5, "final": True, "loop_lag_s": 0.001,
         "counters": {"serve.answered": 1, "serve.queries": 1,
                      "serve.memo_hits": 1,
                      "serve.tenant.queries.acme": 1,
                      "serve.tenant.answered.acme": 1,
                      "serve.registry.mem_hits": 1},
         "gauges": {"serve.queue_depth.acme": 0.0},
         "hists": {"serve.latency_s": _single_value_hist(0.008)},
         "breakers": {TAG: "closed"},
         "transitions": [f"{TAG}:half_open", f"{TAG}:closed"]},
    ]


@pytest.fixture()
def recorder(tmp_path):
    path = tmp_path / "flight.jsonl"
    with path.open("w") as fh:
        for record in _recorder_records():
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestStatsRendering:
    def test_golden_output(self, recorder, capsys):
        rc, out, _ = _run(capsys, ["stats", "--telemetry", str(recorder)])
        assert rc == 0
        # trailing pad spaces are layout, not content
        got = [line.rstrip() for line in out.splitlines()]
        want = [line.rstrip() for line in GOLDEN.splitlines()]
        assert got == want

    def test_json_document(self, recorder, capsys):
        rc, out, _ = _run(
            capsys, ["stats", "--telemetry", str(recorder), "--json"]
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["complete"] is True
        assert doc["records"] == 3
        assert doc["totals"] == {
            "queries": 11, "answered": 9, "failed": 2, "rejected": 0,
            "memo_hits": 1, "batches": 4, "mean_batch": 2.5,
            "registry_hit_rate": 0.8,
        }
        assert doc["tenants"] == {
            "acme": {"queries": 11, "answered": 9, "failed": 2,
                     "rejected": 0, "waits": 0},
        }
        assert [t["transition"] for t in doc["transitions"]] == [
            f"{TAG}:open", f"{TAG}:half_open", f"{TAG}:closed",
        ]
        assert doc["breakers"] == {TAG: "closed"}
        assert doc["loop_lag"] == {"mean_ms": 1.5, "max_ms": 2.0}
        # the per-interval qps timeline
        assert [e["qps"] for e in doc["timeline"]] == [0.0, 8.0, 2.0]
        assert doc["timeline"][1]["p95_ms"] == 4.0

    def test_top_limits_slow_queries(self, tmp_path, capsys):
        records = _recorder_records()
        records[1]["slow_queries"] = [
            {"latency_ms": float(10 + i), "tenant": "acme",
             "target": 32, "kind": "features", "model": TAG}
            for i in range(5)
        ]
        path = tmp_path / "many.jsonl"
        with path.open("w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        rc, out, _ = _run(
            capsys,
            ["stats", "--telemetry", str(path), "--top", "2", "--json"],
        )
        assert rc == 0
        slow = json.loads(out)["slow_queries"]
        assert [e["latency_ms"] for e in slow] == [14.0, 13.0]

    def test_mid_run_recorder_renders(self, recorder, capsys):
        # drop the final record: a live process being inspected mid-run
        lines = recorder.read_text().splitlines()[:-1]
        torn = recorder.with_name("live.jsonl")
        torn.write_text("\n".join(lines) + "\n" + '{"seq": 2, "t_')
        rc, out, _ = _run(capsys, ["stats", "--telemetry", str(torn)])
        assert rc == 0
        assert "mid-run (no final record)" in out


class TestStatsValidation:
    def test_missing_file(self, tmp_path, capsys):
        rc, _, err = _run(
            capsys, ["stats", "--telemetry", str(tmp_path / "nope.jsonl")]
        )
        assert rc == 2
        assert "--telemetry file not found" in err
        assert "Traceback" not in err

    def test_negative_top(self, recorder, capsys):
        rc, _, err = _run(
            capsys, ["stats", "--telemetry", str(recorder), "--top", "-1"]
        )
        assert rc == 2 and "--top must be >= 0" in err

    def test_empty_file_is_not_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc, out, _ = _run(capsys, ["stats", "--telemetry", str(path)])
        assert rc == 0
        assert "no complete records" in out

    def test_corrupt_mid_file_is_typed(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('garbage\n{"seq": 0}\n')
        rc, _, err = _run(capsys, ["stats", "--telemetry", str(path)])
        assert rc != 0
        assert "Traceback" not in err
