"""Integration tests: observability threaded through the pipeline.

Worker->parent span and metric propagation under a real process pool,
metrics mirroring from every ``CounterSet`` tally (``CacheStats``,
``RunReport``, ``ServeReport``, ...), run-manifest digest stability,
and the determinism contract: enabling observability changes no
numeric output.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exec.pool import run_tasks
from repro.exec.resilience import (
    ResilienceConfig,
    RunReport,
    run_tasks_resilient,
)
from repro.exec.sigcache import SignatureCache
from repro.obs import manifest as obs_manifest
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY, CounterSet
from repro.pipeline.collect import CollectionSettings, collect_signature
from repro.pipeline.journal import RunJournal
from repro.util.store import FRAME_MAGIC
from tests.conftest import FAST_COLLECTOR
from tests.schema_utils import assert_valid

SCHEMA_DIR = Path(__file__).parent / "schemas"
MANIFEST_SCHEMA = json.loads((SCHEMA_DIR / "manifest.schema.json").read_text())


@pytest.fixture(autouse=True)
def _obs_isolation(monkeypatch):
    monkeypatch.delenv(obs_trace.ENV_TRACE, raising=False)
    obs_trace.disable()
    REGISTRY.reset()
    yield
    obs_trace.disable()
    REGISTRY.reset()


def _spanning_square(x: int) -> int:
    """Pool task that opens a span, bumps a counter and observes a timer
    (module-level so it pickles into workers)."""
    with obs_trace.span("demo.square", x=x):
        REGISTRY.inc("demo.calls")
        REGISTRY.observe("demo.value_s", x / 4)
        return x * x


def _nested_resilient_sum(x: int) -> int:
    """Pool task that itself fans out resiliently — the shape of
    ``collect_signatures`` -> ``collect_signature`` inside a worker,
    where the inner fan-out degrades to serial execution."""
    results, _ = run_tasks_resilient(
        _spanning_square, [(x,), (x + 1,)],
        workers=0, config=ResilienceConfig(max_retries=0),
    )
    return sum(results)


class TestWorkerPropagation:
    def test_spans_ship_back_from_pool_workers(self):
        tracer = obs_trace.enable()
        tasks = [(i,) for i in range(6)]
        results = run_tasks(
            _spanning_square, tasks, workers=2,
            keys=[f"sq:{i}" for i in range(6)],
        )
        assert results == [i * i for i in range(6)]
        names = [e["name"] for e in tracer.events]
        assert names.count("demo.square") == 6
        assert names.count("exec.task") == 6
        # spans really came from other processes
        pids = {e["pid"] for e in tracer.events}
        assert os.getpid() not in pids
        # task keys travel as span args
        keys = {
            e["args"]["key"] for e in tracer.events
            if e["name"] == "exec.task"
        }
        assert keys == {f"sq:{i}" for i in range(6)}

    def test_metrics_ship_back_from_pool_workers(self):
        # worker metrics must reach the parent whether or not spans do
        for traced in (True, False):
            REGISTRY.reset()
            if traced:
                obs_trace.enable()
            else:
                obs_trace.disable()
            run_tasks(_spanning_square, [(i,) for i in range(5)], workers=2)
            assert REGISTRY.counters["demo.calls"] == 5, traced
            # each worker's timer ships as a histogram and merges
            # losslessly: 0 + 0.25 + 0.5 + 0.75 + 1.0 is exact in binary
            # floating point
            hist = REGISTRY.timers["demo.value_s"]
            assert hist.count == 5, traced
            assert hist.total == 2.5, traced
            assert hist.max_value == 1.0, traced

    def test_serial_path_untouched_by_tracing(self):
        tracer = obs_trace.enable()
        results = run_tasks(_spanning_square, [(2,), (3,)], workers=0)
        assert results == [4, 9]
        # serial spans land directly, with the calling process's pid
        assert {e["pid"] for e in tracer.events} == {os.getpid()}

    def test_nested_resilient_fanout_ships_plain_values(self):
        # a resilient fan-out running serially *inside* a traced lane
        # records into that worker, whose one reply ships it: results
        # stay plain values and every inner span and count arrives once
        tracer = obs_trace.enable()
        results, report = run_tasks_resilient(
            _nested_resilient_sum, [(1,), (3,)],
            workers=2, config=ResilienceConfig(max_retries=0),
        )
        assert results == [1 + 4, 9 + 16]
        assert report.clean
        names = [e["name"] for e in tracer.events]
        assert names.count("demo.square") == 4  # inner spans still arrive
        assert REGISTRY.counters["demo.calls"] == 4

    def test_tracing_off_pool_results_identical(self):
        on = None
        try:
            obs_trace.enable()
            on = run_tasks(_spanning_square, [(i,) for i in range(4)], workers=2)
        finally:
            obs_trace.disable()
        off = run_tasks(_spanning_square, [(i,) for i in range(4)], workers=2)
        assert on == off


def _counter_sets():
    """Every ``CounterSet`` subclass the ``repro`` package defines."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, todo = [], [CounterSet]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("repro."):
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


class TestMetricsMirroring:
    def test_cache_stats_equal_registry(self, tmp_path):
        cache = SignatureCache(tmp_path / "cache")
        key = "0" * 64
        assert cache.get(key) is None  # miss
        cache.put(key, {"payload": 1})  # store
        assert cache.get(key) == {"payload": 1}  # hit
        # corrupt the entry -> quarantine -> counted miss
        path = cache.store.path(key)
        path.write_bytes(FRAME_MAGIC + b"f" * 64 + b"\n" + b"garbage")
        assert cache.get(key) is None
        expected = cache.stats.to_dict()
        assert expected == {
            "hits": 1, "misses": 2, "stores": 1,
            "uncacheable": 0, "corrupt": 1,
        }
        mirrored = {
            name.split(".", 1)[1]: value
            for name, value in REGISTRY.counters.items()
            if name.startswith("cache.")
        }
        assert {k: v for k, v in expected.items() if v} == mirrored

    @pytest.mark.parametrize(
        "cls", _counter_sets(), ids=lambda cls: cls.__name__
    )
    def test_counter_set_mirrors_registry(self, cls):
        tally = cls()
        # CounterSet.clean by its base definition: DagStats has a counter
        # named "clean" that shadows the property
        assert CounterSet.clean.fget(tally)
        before = {
            name: REGISTRY.counters.get(f"{cls.PREFIX}.{name}", 0)
            for name in tally.counters()
        }
        assert before, f"{cls.__name__} has no int counters"
        for name in before:
            tally.bump(name)
        for name, value in tally.counters().items():
            delta = REGISTRY.counters[f"{cls.PREFIX}.{name}"] - before[name]
            assert delta == value == 1, name
            assert f"{name}=1" in str(tally)
        doc = tally.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert not CounterSet.clean.fget(tally)

    def test_journal_stats_equal_registry(self, tmp_path):
        with RunJournal(tmp_path / "j.jsonl") as journal:
            journal.amend("unit:a", status="done")
            journal.amend("unit:b", status="done")
        with RunJournal(tmp_path / "j.jsonl", resume=True) as journal:
            assert journal.meta("unit:a") == {"status": "done"}
            journal.amend("unit:c", status="failed")
            doc = journal.stats.to_dict()
        assert doc == {"amended": 1}
        assert REGISTRY.counters["journal.amended"] == 3


class TestManifest:
    def test_npz_digest_stable_across_saves(self, tmp_path):
        arrays = {"a": np.arange(10.0), "b": np.ones((3, 3))}
        p1, p2 = tmp_path / "one.npz", tmp_path / "two.npz"
        np.savez_compressed(p1, **arrays)
        np.savez_compressed(p2, **arrays)
        assert obs_manifest.digest_file(p1) == obs_manifest.digest_file(p2)
        # content changes change the digest
        arrays["a"] = arrays["a"] + 1
        p3 = tmp_path / "three.npz"
        np.savez_compressed(p3, **arrays)
        assert obs_manifest.digest_file(p3) != obs_manifest.digest_file(p1)

    def test_build_manifest_schema_and_digests(self, tmp_path):
        out = tmp_path / "artifact.bin"
        out.write_bytes(b"hello world")
        cache = SignatureCache(tmp_path / "cache")
        report = RunReport()
        tracer = obs_trace.enable()
        with obs_trace.span("fit.series"):
            pass
        doc = obs_manifest.build_manifest(
            command="table1",
            config={"target": 32, "forms": ("a", "b")},
            outputs={"artifact.bin": out, "table.txt": b"rendered\n"},
            app="jacobi",
            machine="blue_waters_p1",
            cache=cache,
            report=report,
            tracer=tracer,
        )
        assert_valid(doc, MANIFEST_SCHEMA, "manifest")
        digests = obs_manifest.output_digests(doc)
        assert digests["artifact.bin"] == obs_manifest.digest_bytes(
            b"hello world"
        )
        assert doc["outputs"]["table.txt"]["bytes"] == 9
        assert doc["stage_durations"]["fit.series"]["count"] == 1
        path = obs_manifest.write_manifest(tmp_path / "m.json", doc)
        assert json.loads(path.read_text()) == doc

    def test_git_sha_present_in_repo(self):
        sha = obs_manifest.git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))


class TestDeterminism:
    def test_observability_changes_no_numeric_output(self, small_jacobi, bw_machine):
        settings = CollectionSettings(
            ranks="slowest", collector=FAST_COLLECTOR, workers=0
        )
        plain = collect_signature(
            small_jacobi, 4, bw_machine.hierarchy, settings
        )
        obs_trace.enable()
        tracer = obs_trace.current()
        traced = collect_signature(
            small_jacobi, 4, bw_machine.hierarchy, settings
        )
        assert tracer.events, "tracing was on but recorded nothing"
        assert plain.compute_times == traced.compute_times
        a = plain.slowest_trace()
        b = traced.slowest_trace()
        for bid in a.blocks:
            for ia, ib in zip(
                a.blocks[bid].instructions, b.blocks[bid].instructions
            ):
                np.testing.assert_array_equal(ia.features, ib.features)

    def test_no_timestamps_in_span_free_exports(self, tmp_path):
        # signature payloads digested for the manifest must not absorb
        # wall-clock state: same trace saved twice -> same digest
        obs_trace.enable()
        from repro.trace.features import FeatureSchema
        from repro.trace.records import (
            BasicBlockRecord,
            InstructionRecord,
            SourceLocation,
        )
        from repro.trace.tracefile import TraceFile

        schema = FeatureSchema(["L1"])
        block = BasicBlockRecord(
            block_id=0,
            location=SourceLocation(function="f"),
            instructions=[InstructionRecord(
                instr_id=0, kind="load",
                features=np.zeros(schema.n_features),
            )],
        )
        trace = TraceFile.from_blocks(
            [block], app="x", rank=0, n_ranks=2, target="t", schema=schema
        )
        trace.save_npz(tmp_path / "a.npz")
        trace.save_npz(tmp_path / "b.npz")
        assert obs_manifest.digest_file(
            tmp_path / "a.npz"
        ) == obs_manifest.digest_file(tmp_path / "b.npz")
