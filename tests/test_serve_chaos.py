"""Chaos acceptance test: the serving stack under a combined fault plan.

One scripted scenario injects every serve fault kind at once —
slow-predict, predict-raise (enough to open the breaker),
corrupt-model-entry, a worker crash during runtime replay, and a
deadline expiry — and holds the stack to the resilience contract:

- **no hangs**: every query resolves with an :class:`Answer` or a typed
  :class:`~repro.util.errors.ReproError`, never silence;
- **bit-identity**: queries untouched by faults answer bit-identically
  (same feature bytes, same replayed runtime) to a fault-free run;
- **exact accounting**: the engine's :class:`ServeReport`, the
  ``serve.resilience.*`` metrics counters, ``engine.summary()``, and
  the run manifest all record *exactly* the injected fault tallies —
  no double counts, no losses.

The scenario drives queries sequentially so the per-key batch attempt
numbers (which the fault plan addresses) are deterministic; the CI
``serve-chaos`` job replays the same kind of plan through the CLI under
real concurrency.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import replace

import pytest

from repro.exec import faults
from repro.obs.manifest import build_manifest
from repro.obs.metrics import REGISTRY
from repro.serve import (
    ModelRegistry,
    Query,
    QueryEngine,
    ServeConfig,
    ServeReport,
)
from repro.util.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServeError,
    TaskCrashError,
)

WINDOW_S = 0.03
BREAKER_OPEN_S = 0.05


def _sha(values) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def _chaos_plan(digest_a: str, digest_b: str) -> faults.FaultPlan:
    """Every serve fault kind, addressed to deterministic attempts."""
    features_key = f"serve:batch:{digest_a[:12]}:features"
    return faults.FaultPlan(
        specs=(
            # 2nd feature batch limps (but answers)
            faults.FaultSpec(
                key=features_key, kind="slow-predict",
                attempts=(2,), seconds=0.02,
            ),
            # 3rd and 4th fail -> breaker (threshold 2) opens
            faults.FaultSpec(
                key=features_key, kind="predict-raise", attempts=(3, 4),
            ),
            # model B's store is truncated -> quarantined on first load
            faults.FaultSpec(
                key=digest_b, kind="corrupt-model-entry", feature="matrix",
            ),
            # one runtime replay target crashes through all its retries
            faults.FaultSpec(
                key=f"serve:replay:{digest_a[:12]}:64", kind="crash",
                attempts=(1, 2, 3),
            ),
        )
    )


@pytest.fixture()
def chaos_setup(tmp_path, serve_model):
    model_b = replace(
        serve_model, spec=replace(serve_model.spec, code_version="build-b")
    )
    probe = ModelRegistry(tmp_path / "probe")
    probe.put(serve_model)
    entry_mb = probe.disk_usage_bytes() / (1024 * 1024)

    def build_engine(root):
        reg = ModelRegistry(root, budget_mb=entry_mb * 2.5)
        reg.put(serve_model)
        reg.put(model_b)
        # cold memory tier: every first load goes through the disk
        # entry, so the injected store corruption is actually read
        reg.clear_memory()
        engine = QueryEngine(
            reg,
            default_model=serve_model.digest,
            config=ServeConfig(
                max_batch=16,
                window_s=WINDOW_S,
                breaker_threshold=2,
                breaker_open_s=BREAKER_OPEN_S,
            ),
        )
        return engine

    return serve_model, model_b, entry_mb, build_engine


async def _run_scenario(engine, model_b):
    """The scripted chaos walk; returns every outcome, labeled."""
    outcomes = {}

    async def ask(label, query):
        try:
            outcomes[label] = await engine.query(query)
        except ReproError as exc:
            outcomes[label] = exc
        return outcomes[label]

    await engine.start()
    # feature-batch attempts 1..4: clean, slow, raise, raise (opens)
    await ask("clean1", Query(target=32))
    await ask("slow", Query(target=48))
    await ask("fail1", Query(target=64))
    await ask("fail2", Query(target=64))
    # breaker is open: shed fast at admission
    await ask("shed", Query(target=64))
    # past the jittered window (<= 0.05 * 1.25): the probe closes it
    await asyncio.sleep(BREAKER_OPEN_S * 1.25 + 0.02)
    await ask("probe", Query(target=32))
    # runtime replay: target 64 crashes out, 128 rides along untouched
    crash = asyncio.ensure_future(
        ask("crash", Query(target=64, kind="runtime"))
    )
    healthy = asyncio.ensure_future(
        ask("replay", Query(target=128, kind="runtime"))
    )
    await asyncio.gather(crash, healthy)
    # model B's entry was corrupted at store: quarantine, typed error
    await ask("corrupt", Query(target=32, model=model_b.digest))
    # a 5ms deadline parks in a 30ms window: expired at batch flush
    await ask("deadline", Query(target=96, deadline_ms=5.0))
    await engine.stop()
    return outcomes


def test_chaos_every_query_answered_and_tallies_exact(chaos_setup, tmp_path):
    serve_model, model_b, entry_mb, build_engine = chaos_setup
    plan = _chaos_plan(serve_model.digest, model_b.digest)
    counters_before = {
        name: REGISTRY.counters.get(f"serve.resilience.{name}", 0)
        for name in ServeReport().counters()
    }

    with faults.injected(plan):
        engine = build_engine(tmp_path / "chaos")
        outcomes = asyncio.run(_run_scenario(engine, model_b))

    # -- no hangs: every query resolved, answer or typed error ----------
    assert set(outcomes) == {
        "clean1", "slow", "fail1", "fail2", "shed", "probe",
        "crash", "replay", "corrupt", "deadline",
    }
    for label, outcome in outcomes.items():
        assert not isinstance(outcome, BaseException) or isinstance(
            outcome, ReproError
        ), f"{label}: untyped {outcome!r}"
    assert isinstance(outcomes["fail1"], ServeError)
    assert isinstance(outcomes["fail2"], ServeError)
    assert isinstance(outcomes["shed"], CircuitOpenError)
    assert isinstance(outcomes["crash"], TaskCrashError)
    assert isinstance(outcomes["corrupt"], ServeError)
    assert isinstance(outcomes["deadline"], DeadlineExceededError)

    # -- exact fault accounting -----------------------------------------
    report = engine.report
    assert report.slow_predicts == 1
    # fail1 + fail2 + model B vanishing mid-batch
    assert report.batch_failures == 3
    assert report.breaker_opens == 1
    assert report.breaker_half_opens == 1
    assert report.breaker_closes == 1
    assert report.breaker_rejected == 1
    assert report.deadline_flush == 1
    assert report.deadline_admission == 0
    assert report.deadline_dispatch == 0
    # both runtime queries co-batched into one offloaded execution —
    # the crashed target failed alone, its batch mate was answered
    assert report.offloads == 1
    assert outcomes["replay"].batch_size == 2
    tag = serve_model.digest[:12]
    assert report.transitions == [
        f"{tag}:open", f"{tag}:half_open", f"{tag}:closed"
    ]
    # the crashed replay retried per the worker policy, then collected
    assert report.worker.crashes == 3
    assert report.worker.retries == 2

    # -- registry self-healing and bounds --------------------------------
    reg = engine.registry
    assert reg.stats.quarantined == 1
    assert reg.quarantined_digests() == [model_b.digest]
    assert reg.disk_usage_bytes() <= entry_mb * 2.5 * 1024 * 1024

    # -- report == metrics == summary == manifest ------------------------
    for name, value in report.counters().items():
        delta = (
            REGISTRY.counters.get(f"serve.resilience.{name}", 0)
            - counters_before[name]
        )
        assert delta == value, name
    assert engine.summary()["resilience"] == report.to_dict()
    manifest = build_manifest(command="serve", serve=engine.report)
    assert manifest["serve"] == report.to_dict()

    # -- bit-identity of clean answers vs a fault-free run ---------------
    baseline_engine = build_engine(tmp_path / "baseline")
    baseline = asyncio.run(_run_scenario(baseline_engine, model_b))
    # the baseline still offloads and expires the deadline query (load
    # shape, not faults) — but no failure machinery fires
    base_report = baseline_engine.report
    assert base_report.batch_failures == 0
    assert base_report.breaker_opens == 0
    assert base_report.slow_predicts == 0
    assert base_report.worker.clean
    assert baseline_engine.registry.stats.quarantined == 0
    # the deadline query expires in both runs (it is load, not a fault)
    assert isinstance(baseline["deadline"], DeadlineExceededError)
    for label in ("clean1", "slow", "probe", "replay"):
        chaotic, ideal = outcomes[label], baseline[label]
        assert _sha(chaotic.values) == _sha(ideal.values), label
        assert chaotic.runtime_s == ideal.runtime_s, label
    # queries that failed under chaos succeed in the fault-free run
    for label in ("fail1", "fail2", "shed", "crash", "corrupt"):
        assert not isinstance(baseline[label], BaseException), label
