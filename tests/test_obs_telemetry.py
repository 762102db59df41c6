"""Live telemetry: streaming histograms, the sampler, and the recorder.

Four contracts:

- **histogram fidelity** — the log2-bucket streaming histogram answers
  p50/p95/p99 within its documented relative-error bound (1/SUBBUCKETS)
  of ``numpy.percentile`` on the raw stream, with exact count/sum/
  min/max, and merging shards is equivalent to one big histogram;
- **snapshot determinism** — on a fake clock, the sampler writes
  byte-identical flight-recorder files for identical registry activity;
- **torn-tail tolerance** — a recorder cut off mid-write reads back
  minus its torn line, while mid-file
  corruption still raises;
- **interval placement** — breaker transitions land in the recorder
  interval where they actually happened (the chaos-plan run), and
  per-interval counter deltas telescope to the end-of-run tallies
  exactly.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

from repro.exec import faults
from repro.obs.metrics import MetricsRegistry, REGISTRY
from repro.obs.telemetry import (
    SUBBUCKETS,
    SlowQueryLog,
    StreamingHistogram,
    TelemetryConfig,
    TelemetrySampler,
    bucket_bounds,
    bucket_index,
    hist_delta,
    merged_hist,
    read_flight_records,
    render_prometheus,
    sum_counters,
    write_prometheus,
)
from repro.util.errors import ReproError, ServeError

from tests.check_obs_artifacts import check_artifacts
from tests.schema_utils import assert_valid

TELEMETRY_SCHEMA = json.loads(
    (Path(__file__).parent / "schemas" / "telemetry.schema.json").read_text()
)


class TestStreamingHistogram:
    def test_bucket_scheme_is_consistent(self):
        # every in-range positive value falls inside its bucket's bounds
        for value in (1e-9, 0.001, 0.5, 1.0, 3.7, 1e6):
            idx = bucket_index(value)
            lo, hi = bucket_bounds(idx)
            assert lo <= value < hi, value
        # zero/negative/underflow fold into the zero bucket
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(1e-13) == 0
        # overflow clamps into the top bucket
        assert bucket_index(1e9) == bucket_index(2.0 ** 30)

    @pytest.mark.parametrize(
        "name,values",
        [
            ("lognormal", np.random.default_rng(7).lognormal(-6, 2, 5000)),
            ("uniform", np.random.default_rng(8).uniform(0.001, 0.1, 5000)),
            ("bimodal", np.concatenate([
                np.random.default_rng(9).normal(0.002, 0.0002, 2500),
                np.random.default_rng(10).normal(0.05, 0.005, 2500),
            ]).clip(min=1e-6)),
        ],
    )
    def test_quantiles_vs_numpy(self, name, values):
        """Property: bucket-interpolated quantiles within 1/SUBBUCKETS
        relative error of numpy.percentile on the raw stream."""
        hist = StreamingHistogram()
        for v in values:
            hist.observe(float(v))
        bound = 1.0 / SUBBUCKETS
        for q in (0.05, 0.25, 0.50, 0.90, 0.95, 0.99):
            # between the straddling order statistics (modulo bucket
            # width): numpy's *linear* point inside an empty gap is not
            # a value any bucket scheme can represent, the bracket is
            lo = float(np.quantile(values, q, method="lower"))
            hi = float(np.quantile(values, q, method="higher"))
            got = hist.quantile(q)
            assert lo * (1 - bound) <= got <= hi * (1 + bound), (
                name, q, got, lo, hi,
            )
            # and on the dense interior the pointwise bound holds too
            ref = float(np.percentile(values, q * 100))
            if abs(hi - lo) / ref <= bound:
                assert abs(got - ref) / ref <= 2 * bound, (name, q, got, ref)
        assert hist.count == len(values)
        assert hist.total == pytest.approx(float(np.sum(values)))
        assert hist.min_value == float(np.min(values))
        assert hist.max_value == float(np.max(values))
        assert hist.quantile(0.0) == hist.min_value
        assert hist.quantile(1.0) == hist.max_value

    def test_merge_equals_single_histogram(self):
        rng = np.random.default_rng(11)
        values = rng.lognormal(-5, 1.5, 3000)
        whole = StreamingHistogram()
        shards = [StreamingHistogram() for _ in range(3)]
        for i, v in enumerate(values):
            whole.observe(float(v))
            shards[i % 3].observe(float(v))
        merged = StreamingHistogram()
        for shard in shards:
            merged.merge(shard)
        assert merged.buckets == whole.buckets
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total)
        assert merged.quantile(0.95) == whole.quantile(0.95)

    def test_dict_roundtrip_and_delta(self):
        hist = StreamingHistogram()
        for v in (0.001, 0.002, 0.004):
            hist.observe(v)
        doc = hist.to_dict()
        back = StreamingHistogram.from_dict(doc)
        assert back.to_dict() == doc
        assert back.quantile(0.5) == hist.quantile(0.5)
        # a delta between snapshots covers exactly the new observations
        before = hist.to_dict()
        hist.observe(0.008)
        delta = hist_delta(hist.to_dict(), before)
        assert delta["count"] == 1
        assert delta["sum"] == pytest.approx(0.008)
        assert sum(delta["buckets"].values()) == 1
        assert hist_delta(hist.to_dict(), hist.to_dict()) is None
        empty = StreamingHistogram()
        assert hist_delta(empty.to_dict(), None) is None

    def test_empty_and_zero(self):
        hist = StreamingHistogram()
        assert hist.quantile(0.5) == 0.0
        hist.observe(0.0)
        assert hist.count == 1 and hist.quantile(0.99) == 0.0


class TestSlowQueryLog:
    def test_top_n_and_drain(self):
        log = SlowQueryLog(3)
        for i, lat in enumerate([0.01, 0.05, 0.02, 0.04, 0.03]):
            log.record(lat, tenant=f"t{i}")
        drained = log.drain()
        assert [e["latency_ms"] for e in drained] == [50.0, 40.0, 30.0]
        assert log.drain() == []  # reset per interval

    def test_disabled(self):
        log = SlowQueryLog(0)
        log.record(1.0, tenant="t")
        assert log.drain() == []


def _fake_sampler(tmp_path, name="flight.jsonl"):
    reg = MetricsRegistry()
    clock = _FakeClock(100.0)
    sampler = TelemetrySampler(
        None,
        TelemetryConfig(interval_s=1.0, out=tmp_path / name),
        registry=reg,
        clock=clock,
        wall_clock=lambda: 1.7e9,
    )
    return reg, clock, sampler


class _FakeClock:
    def __init__(self, t):
        self.t = t

    def __call__(self):
        return self.t


def _scripted_run(reg, clock, sampler):
    reg.inc("serve.queries", 5)
    reg.set_gauge("serve.queue_depth.a", 2.0)
    reg.observe("serve.latency_s", 0.004)
    clock.t += 1.0
    sampler.sample()
    reg.inc("serve.queries", 3)
    reg.inc("serve.answered", 8)
    reg.observe("serve.latency_s", 0.004)
    clock.t += 1.5
    sampler.sample(loop_lag_s=0.5)
    clock.t += 0.25
    sampler.sample(final=True)
    sampler.close()


class TestSamplerFakeClock:
    def test_snapshot_determinism(self, tmp_path):
        """Identical activity on a fake clock: byte-identical recorders."""
        files = []
        for name in ("a.jsonl", "b.jsonl"):
            reg, clock, sampler = _fake_sampler(tmp_path, name)
            _scripted_run(reg, clock, sampler)
            files.append((tmp_path / name).read_bytes())
        assert files[0] == files[1]

    def test_interval_delta_semantics(self, tmp_path):
        reg, clock, sampler = _fake_sampler(tmp_path)
        _scripted_run(reg, clock, sampler)
        records = read_flight_records(tmp_path / "flight.jsonl")
        assert len(records) == 3
        for record in records:
            assert_valid(record, TELEMETRY_SCHEMA, "telemetry record")
        first, second, final = records
        # deltas, not cumulative values
        assert first["counters"] == {"serve.queries": 5}
        assert second["counters"] == {"serve.queries": 3, "serve.answered": 8}
        assert final["counters"] == {}
        assert first["seq"] == 0 and second["seq"] == 1
        assert second["interval_s"] == pytest.approx(1.5)
        assert second["loop_lag_s"] == pytest.approx(0.5)
        # the loop-lag probe also lands as a gauge for Prometheus
        assert second["gauges"]["serve.loop_lag_s"] == pytest.approx(0.5)
        assert final["final"] is True
        # telescoping: interval sums equal the end-of-run registry
        totals = sum_counters(records)
        assert totals == {"serve.queries": 8, "serve.answered": 8}
        assert merged_hist(records, "serve.latency_s").count == 2
        # per-interval histogram deltas carry only that interval's counts
        assert records[0]["hists"]["serve.latency_s"]["count"] == 1
        assert records[1]["hists"]["serve.latency_s"]["count"] == 1
        assert "serve.latency_s" not in records[2]["hists"]
        # the checker accepts the artifact end to end
        assert check_artifacts(telemetry=tmp_path / "flight.jsonl") == []


class TestFlightRecorderReads:
    def test_torn_tail_is_dropped(self, tmp_path):
        reg, clock, sampler = _fake_sampler(tmp_path)
        _scripted_run(reg, clock, sampler)
        path = tmp_path / "flight.jsonl"
        whole = read_flight_records(path)
        with path.open("a") as fh:
            fh.write('{"schema": 1, "seq": 3, "t_s"')  # killed mid-write
        torn = read_flight_records(path)
        assert torn == whole
        # strict mode refuses even the torn tail
        with pytest.raises(ReproError):
            read_flight_records(path, strict=True)

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 1, "seq": 0}\ngarbage\n{"seq": 1}\n')
        with pytest.raises(ReproError):
            read_flight_records(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            read_flight_records(tmp_path / "nope.jsonl")

    def test_checker_flags_inconsistencies(self, tmp_path):
        base = {
            "schema": 1, "wall_time": 1.0, "final": False,
            "counters": {}, "gauges": {}, "hists": {},
        }
        path = tmp_path / "incons.jsonl"
        path.write_text(
            json.dumps({**base, "seq": 0, "t_s": 1.0, "interval_s": 1.0,
                        "final": True})
            + "\n"
            + json.dumps({**base, "seq": 0, "t_s": 0.5, "interval_s": 0.5})
            + "\n"
        )
        problems = check_artifacts(telemetry=path)
        assert any("seq" in p for p in problems)
        assert any("ran backwards" in p for p in problems)
        assert any("final record is not last" in p for p in problems)


class TestPrometheus:
    def test_exposition_well_formed(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("serve.queries", 12)
        reg.inc("serve.tenant.answered.acme", 7)
        reg.set_gauge("serve.queue_depth.acme", 3.0)
        reg.set_gauge("serve.breaker.ab12cd34ef56", 1.0)
        for v in (0.001, 0.002, 0.004, 0.008):
            reg.observe("serve.latency_s", v)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE repro_serve_queries_total counter" in lines
        assert "repro_serve_queries_total 12" in lines
        # the per-tenant / per-model families carry labels
        assert 'repro_serve_tenant_answered_total{tenant="acme"} 7' in lines
        assert 'repro_serve_queue_depth{tenant="acme"} 3.0' in lines
        assert 'repro_serve_breaker_state{model="ab12cd34ef56"} 1.0' in lines
        # histogram family: cumulative le buckets, +Inf, sum, count
        assert "# TYPE repro_serve_latency_seconds histogram" in lines
        bucket_lines = [
            ln for ln in lines
            if ln.startswith("repro_serve_latency_seconds_bucket")
        ]
        assert bucket_lines[-1] == (
            'repro_serve_latency_seconds_bucket{le="+Inf"} 4'
        )
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in bucket_lines]
        assert counts == sorted(counts)  # cumulative
        assert "repro_serve_latency_seconds_count 4" in lines
        # every line is a comment or `name{labels} value`
        for ln in lines:
            assert ln.startswith("# TYPE ") or len(ln.rsplit(" ", 1)) == 2

    def test_atomic_write_replaces(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("x", 1)
        path = tmp_path / "metrics.prom"
        write_prometheus(path, reg)
        first = path.read_text()
        reg.inc("x", 1)
        write_prometheus(path, reg)
        assert path.read_text() != first
        assert not path.with_name("metrics.prom.tmp").exists()


class TestLoopLagProbe:
    def test_blocked_loop_is_recorded(self, tmp_path):
        """A coroutine that blocks the loop shows up as tick lag."""
        reg = MetricsRegistry()
        sampler = TelemetrySampler(
            None,
            TelemetryConfig(interval_s=0.01, out=tmp_path / "lag.jsonl"),
            registry=reg,
        )

        async def main():
            import time as _time

            await sampler.start()
            await asyncio.sleep(0.012)  # let one clean tick land
            _time.sleep(0.05)  # block the event loop outright
            await asyncio.sleep(0.012)
            await sampler.stop()

        asyncio.run(main())
        records = read_flight_records(tmp_path / "lag.jsonl")
        lags = [r["loop_lag_s"] for r in records if "loop_lag_s" in r]
        assert lags, "no periodic ticks recorded"
        assert max(lags) >= 0.03, f"blocking sleep not observed: {lags}"
        assert records[-1]["final"]


WINDOW_S = 0.02
BREAKER_OPEN_S = 0.05


class TestChaosRecorder:
    """Breaker transitions land in the interval where they happened."""

    def test_transitions_in_their_intervals(self, tmp_path, serve_model):
        from repro.serve import ModelRegistry, Query, QueryEngine, ServeConfig

        digest = serve_model.digest
        tag = digest[:12]
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    key=f"serve:batch:{tag}:features",
                    kind="predict-raise",
                    attempts=(1, 2),
                ),
            )
        )
        registry = ModelRegistry(tmp_path / "reg")
        registry.put(serve_model)
        engine = QueryEngine(
            registry,
            default_model=digest,
            config=ServeConfig(
                max_batch=16,
                window_s=WINDOW_S,
                breaker_threshold=2,
                breaker_open_s=BREAKER_OPEN_S,
            ),
        )
        sampler = TelemetrySampler(
            engine, TelemetryConfig(out=tmp_path / "flight.jsonl")
        )
        counters_before = {
            name: REGISTRY.counters.get(name, 0)
            for name in ("serve.queries", "serve.answered", "serve.failed")
        }

        async def scenario():
            await engine.start()
            engine.telemetry = sampler
            sampler.sample()  # baseline record absorbs prior state
            outcomes = []
            for _ in range(2):  # both fail -> breaker opens on the 2nd
                try:
                    outcomes.append(await engine.query(Query(target=32)))
                except ServeError as exc:
                    outcomes.append(exc)
            sampler.sample()  # interval 1: the open must land here
            await asyncio.sleep(BREAKER_OPEN_S * 1.25 + 0.02)
            outcomes.append(await engine.query(Query(target=48)))
            sampler.sample()  # interval 2: half_open -> closed land here
            await engine.stop()
            sampler.sample(final=True)
            sampler.close()
            return outcomes

        with faults.injected(plan):
            outcomes = asyncio.run(scenario())

        assert isinstance(outcomes[0], ServeError)
        assert isinstance(outcomes[1], ServeError)
        assert not isinstance(outcomes[2], BaseException)

        records = read_flight_records(tmp_path / "flight.jsonl")
        for record in records:
            assert_valid(record, TELEMETRY_SCHEMA, "telemetry record")
        baseline, opened, recovered, final = records
        assert baseline["transitions"] == []
        # the open happened between samples 1 and 2 — and only there
        assert opened["transitions"] == [f"{tag}:open"]
        assert opened["breakers"] == {tag: "open"}
        assert opened["gauges"][f"serve.breaker.{tag}"] == 1.0
        # the half-open probe and close happened in the next interval
        assert recovered["transitions"] == [
            f"{tag}:half_open", f"{tag}:closed"
        ]
        assert recovered["breakers"] == {tag: "closed"}
        assert final["transitions"] == []
        # telescoping: post-baseline deltas equal the engine's tallies
        totals = sum_counters(records[1:])
        assert totals["serve.queries"] == engine.stats.queries == 3
        assert totals["serve.answered"] == engine.stats.answered == 1
        assert totals["serve.failed"] == engine.stats.failed == 2
        for name, before in counters_before.items():
            assert (
                REGISTRY.counters.get(name, 0) - before
                == totals.get(name, 0)
            ), name
        # the slow-query log saw the answered probe
        slow = [e for r in records for e in r.get("slow_queries", [])]
        assert any(e["target"] == 48 for e in slow)
