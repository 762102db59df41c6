"""Unit tests: the observability primitives (log, trace, metrics).

Covers span nesting and exception safety, Chrome-trace JSON schema
validity, metrics histogram quantiles, rate-limited and JSON-structured
logging, the ``$REPRO_LOG`` grammar, and the executor lane's hand-off
of worker spans and metrics — all without touching the pipeline.
"""

from __future__ import annotations

import io
import json
import logging
import time
from pathlib import Path

import pytest

from repro.exec.resilience import ResilienceConfig, run_tasks_resilient
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.telemetry import SUBBUCKETS
from tests.schema_utils import assert_valid, validate

SCHEMA_DIR = Path(__file__).parent / "schemas"
TRACE_SCHEMA = json.loads((SCHEMA_DIR / "trace.schema.json").read_text())
METRICS_SCHEMA = json.loads((SCHEMA_DIR / "metrics.schema.json").read_text())
LOG_SCHEMA = json.loads((SCHEMA_DIR / "log.schema.json").read_text())


@pytest.fixture(autouse=True)
def _obs_isolation(monkeypatch):
    """Every test starts and ends with pristine observability state."""
    monkeypatch.delenv(obs_trace.ENV_TRACE, raising=False)
    monkeypatch.delenv(obs_log.ENV_LOG, raising=False)
    obs_trace.disable()
    REGISTRY.reset()
    yield
    obs_trace.disable()
    REGISTRY.reset()
    root = logging.getLogger(obs_log.ROOT_LOGGER)
    for handler in list(root.handlers):
        root.removeHandler(handler)


class TestSpans:
    def test_disabled_is_noop(self):
        assert obs_trace.span("x") is obs_trace.span("y")
        with obs_trace.span("anything", k=1):
            pass
        assert obs_trace.current() is None

    def test_nesting_depths(self):
        tracer = obs_trace.enable()
        with obs_trace.span("outer"):
            with obs_trace.span("inner"):
                pass
        by_name = {e["name"]: e for e in tracer.events}
        assert by_name["outer"]["args"]["depth"] == 0
        assert by_name["inner"]["args"]["depth"] == 1
        # inner closed first, and sits inside the outer's interval
        assert tracer.events[0]["name"] == "inner"
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_exception_recorded_and_propagated(self):
        tracer = obs_trace.enable()
        with pytest.raises(ValueError):
            with obs_trace.span("boom", step=3):
                raise ValueError("no")
        (event,) = tracer.events
        assert event["args"]["error"] == "ValueError"
        assert event["args"]["step"] == 3
        assert obs_trace.active_spans() == []  # stack unwound

    def test_args_jsonified(self):
        tracer = obs_trace.enable()
        with obs_trace.span("s", obj=object(), n=2, name="x"):
            pass
        args = tracer.events[0]["args"]
        assert isinstance(args["obj"], str)
        assert args["n"] == 2 and args["name"] == "x"

    def test_traced_decorator(self):
        tracer = obs_trace.enable()

        @obs_trace.traced("deco.fn", flavor="test")
        def fn(a, b):
            return a + b

        assert fn(2, 3) == 5
        (event,) = tracer.events
        assert event["name"] == "deco.fn"
        assert event["args"]["flavor"] == "test"

    def test_chrome_export_schema_and_rebase(self, tmp_path):
        tracer = obs_trace.enable()
        with obs_trace.span("a.one"):
            with obs_trace.span("b.two", detail="d"):
                time.sleep(0.001)
        doc = tracer.export_chrome(tmp_path / "trace.json")
        assert_valid(doc, TRACE_SCHEMA, "chrome trace")
        reloaded = json.loads((tmp_path / "trace.json").read_text())
        assert reloaded == doc
        ts = [e["ts"] for e in doc["traceEvents"]]
        assert min(ts) == 0.0 and ts == sorted(ts)
        assert sorted(tracer.stages()) == ["a", "b"]

    def test_stage_durations_aggregates(self):
        tracer = obs_trace.enable()
        for _ in range(3):
            with obs_trace.span("fit.series"):
                pass
        durations = tracer.stage_durations()
        assert durations["fit.series"]["count"] == 3
        assert durations["fit.series"]["total_s"] >= 0.0

    def test_worker_init_resets_inherited_events(self):
        tracer = obs_trace.enable()  # also sets $REPRO_TRACE, as a parent would
        with obs_trace.span("parent.span"):
            pass
        assert tracer.events
        obs_trace.worker_init()  # what a forked pool worker runs
        fresh = obs_trace.current()
        assert fresh is not None and fresh.events == []


def _recorded_square(x: int) -> int:
    """Task that records a span, a counter and a timer, then fails for
    ``x == 3`` (module-level so it pickles into lanes)."""
    with obs_trace.span("demo.square", x=x):
        REGISTRY.inc("demo.calls")
        REGISTRY.observe("demo.value_s", x / 4)
    if x == 3:
        raise ValueError("deterministic failure")
    return x * x


class TestLaneHandoff:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_observability_reaches_the_parent_once(self, workers):
        # the last task raises: its lane's reply still carries the spans
        # and metrics its attempt recorded, and nothing arrives twice
        tracer = obs_trace.enable()
        results, _ = run_tasks_resilient(
            _recorded_square, [(i,) for i in range(4)], workers=workers,
            config=ResilienceConfig(max_retries=0), collect_errors=True,
        )
        assert results[:3] == [0, 1, 4]
        assert isinstance(results[3], ValueError)
        assert REGISTRY.counters["demo.calls"] == 4
        hist = REGISTRY.timers["demo.value_s"]
        # 0 + 0.25 + 0.5 + 0.75 is exact in binary floating point
        assert (hist.count, hist.total, hist.max_value) == (4, 1.5, 0.75)
        names = [e["name"] for e in tracer.events]
        assert names.count("demo.square") == 4
        assert names.count("exec.task") == 4


class TestMetrics:
    def test_counters_gauges_timers(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.set_gauge("g", 2.5)
        for v in range(1, 101):
            reg.observe("t", v / 1000.0)
        doc = reg.to_dict()
        assert_valid(doc, METRICS_SCHEMA, "metrics")
        assert doc["counters"]["c"] == 5
        assert doc["gauges"]["g"] == 2.5
        timer = doc["timers"]["t"]
        assert timer["count"] == 100
        assert timer["sum_s"] == pytest.approx(sum(range(1, 101)) / 1000.0)
        # linear-interpolation order statistics of 1..100 ms; the
        # histogram answers within its bucket width of them
        assert timer["p50_s"] == pytest.approx(0.0505, rel=1 / SUBBUCKETS)
        assert timer["p95_s"] == pytest.approx(0.09505, rel=1 / SUBBUCKETS)
        assert timer["p99_s"] == pytest.approx(0.09901, rel=1 / SUBBUCKETS)
        assert timer["max_s"] == pytest.approx(0.1)

    def test_drain_merge(self):
        reg = MetricsRegistry()
        reg.inc("a", 2)
        reg.set_gauge("g", 1.0)
        reg.observe("t", 0.5)
        snapshot = reg.drain()
        assert reg.counters == {} and reg.timers == {}
        other = MetricsRegistry()
        other.inc("a", 3)
        other.observe("t", 0.25)
        other.merge(snapshot)
        assert other.counters["a"] == 5
        assert other.gauges["g"] == 1.0
        merged = other.timers["t"]
        assert merged.count == 2
        assert merged.total == 0.75
        assert merged.max_value == 0.5

    def test_export_file(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("x")
        doc = reg.export(tmp_path / "m.json")
        assert json.loads((tmp_path / "m.json").read_text()) == doc


class TestLogging:
    def _configure(self, **kwargs) -> io.StringIO:
        stream = io.StringIO()
        obs_log.configure(stream=stream, **kwargs)
        return stream

    def test_human_format_and_level(self):
        stream = self._configure(level="info")
        log = obs_log.get_logger("unit")
        log.debug("hidden")
        log.info("shown %d", 7)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        assert "INFO" in lines[0] and "unit: shown 7" in lines[0]

    def test_json_lines_validate(self):
        stream = self._configure(level="debug", json_mode=True)
        log = obs_log.get_logger("unit.json")
        obs_log.set_task_context(task="collect:app:8")
        try:
            log.warning("storm %s", "x")
        finally:
            obs_log.clear_task_context()
        for line in stream.getvalue().splitlines():
            record = json.loads(line)
            assert_valid(record, LOG_SCHEMA, "log record")
        record = json.loads(stream.getvalue().splitlines()[0])
        assert record["msg"] == "storm x"
        assert record["context"] == {"task": "collect:app:8"}

    def test_quiet_forces_error(self):
        stream = self._configure(level="debug", quiet=True)
        log = obs_log.get_logger("unit.quiet")
        log.warning("suppressed")
        log.error("kept")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1 and "kept" in lines[0]

    def test_rate_limit_burst_and_annotation(self):
        stream = self._configure(level="info", burst=3, interval_s=0.05)
        log = obs_log.get_logger("unit.storm")
        for i in range(10):
            log.info("repeated %d", i)
        assert len(stream.getvalue().splitlines()) == 3
        time.sleep(0.06)
        log.info("repeated %d", 99)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 4
        assert "(+7 suppressed)" in lines[-1]

    def test_rate_limit_keys_on_template(self):
        stream = self._configure(level="info", burst=2, interval_s=60.0)
        log = obs_log.get_logger("unit.keys")
        log.info("alpha")
        log.info("alpha")
        log.info("alpha")  # third alpha suppressed...
        log.info("beta")  # ...but a different template passes
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3 and "beta" in lines[-1]

    def test_env_grammar(self, monkeypatch):
        assert obs_log._parse_env("debug") == ("debug", None)
        assert obs_log._parse_env("json:info") == ("info", True)
        assert obs_log._parse_env("warning,human") == ("warning", False)
        assert obs_log._parse_env("typo:nonsense") == (None, None)
        monkeypatch.setenv(obs_log.ENV_LOG, "json:debug")
        stream = io.StringIO()
        root = obs_log.configure(stream=stream)
        assert root.level == logging.DEBUG
        obs_log.get_logger("env").debug("via env")
        assert json.loads(stream.getvalue().splitlines()[0])["msg"] == "via env"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(obs_log.ENV_LOG, "debug")
        root = obs_log.configure(level="error", stream=io.StringIO())
        assert root.level == logging.ERROR

    def test_exception_rendering(self):
        stream = self._configure(level="error", json_mode=True)
        log = obs_log.get_logger("unit.exc")
        try:
            raise RuntimeError("kaput")
        except RuntimeError:
            log.exception("failed")
        record = json.loads(stream.getvalue().splitlines()[0])
        assert "RuntimeError: kaput" in record["exc"]

    def test_schema_validator_rejects_bad_documents(self):
        # the mini validator itself must catch violations, or every
        # schema assertion in this suite is vacuous
        assert validate({"traceEvents": "nope"}, TRACE_SCHEMA)
        assert validate(
            {"counters": {}, "gauges": {}, "timers": {}, "extra": 1},
            METRICS_SCHEMA,
        )
        assert validate({"ts": 1.0}, LOG_SCHEMA)  # missing required
        bad_event = {
            "traceEvents": [
                {
                    "name": "x", "cat": "c", "ph": "B", "ts": 0, "dur": 0,
                    "pid": 1, "tid": 1, "args": {},
                }
            ],
            "displayTimeUnit": "ms",
        }
        assert validate(bad_event, TRACE_SCHEMA)  # ph "B" not allowed
