"""Model registry tests: digest keying, tiered storage, bit-identity.

The registry's contract is that a persisted model answers exactly like
the in-memory one it was built from — same digests, same predictions to
the bit — while the memory tier's LRU accounting mirrors the
ProfileCache idiom (mem/disk hits, misses, stores, evictions).
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.serve import FittedModel, ModelRegistry, ModelSpec, Query, QueryEngine
from repro.util.errors import ServeError

TARGETS = [32, 64, 128]


def _variant(model: FittedModel, **spec_changes) -> FittedModel:
    """The same fit under a different identity (for multi-model tests)."""
    return replace(model, spec=replace(model.spec, **spec_changes))


class TestModelSpec:
    def test_digest_is_stable_and_order_insensitive(self):
        a = ModelSpec(app="jacobi", train_counts=(16, 4, 8), code_version="v1")
        b = ModelSpec(app="jacobi", train_counts=(4, 8, 16), code_version="v1")
        assert a.digest() == b.digest()
        assert a.train_counts == (4, 8, 16)

    @pytest.mark.parametrize(
        "changes",
        [
            {"app": "uh3d"},
            {"machine": "cray_xt5"},
            {"train_counts": (4, 8, 32)},
            {"cache_engine": "reuse"},
            {"forms": "extended"},
            {"code_version": "v2"},
        ],
    )
    def test_every_identity_field_changes_the_digest(self, changes):
        base = ModelSpec(app="jacobi", train_counts=(4, 8, 16), code_version="v1")
        assert replace(base, **changes).digest() != base.digest()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ServeError):
            ModelSpec(app="jacobi", train_counts=(4,))
        with pytest.raises(ServeError):
            ModelSpec(app="jacobi", cache_engine="quantum")
        with pytest.raises(ServeError):
            ModelSpec(app="jacobi", forms="cubist")

    def test_roundtrips_through_dict(self):
        spec = ModelSpec(
            app="jacobi",
            train_counts=(4, 8, 16),
            cache_engine="reuse",
            forms="extended",
            code_version="v1",
        )
        assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestRegistryTiers:
    def test_memory_roundtrip(self, serve_model):
        reg = ModelRegistry(root=None)
        digest = reg.put(serve_model)
        assert digest == serve_model.digest
        assert serve_model.spec in reg
        assert reg.get(serve_model.spec) is serve_model
        assert reg.stats.mem_hits == 1 and reg.stats.stores == 1

    def test_miss_is_counted(self, serve_model):
        reg = ModelRegistry(root=None)
        assert reg.get(serve_model.spec) is None
        assert reg.stats.misses == 1

    def test_disk_tier_survives_memory_clear(self, tmp_path, serve_model):
        reg = ModelRegistry(tmp_path / "models")
        reg.put(serve_model)
        reg.clear_memory()
        loaded = reg.get(serve_model.spec)
        assert loaded is not None and loaded is not serve_model
        assert reg.stats.disk_hits == 1
        assert loaded.spec == serve_model.spec

    def test_persisted_model_predicts_bit_identically(
        self, tmp_path, serve_model
    ):
        reg = ModelRegistry(tmp_path / "models")
        reg.put(serve_model)
        reg.clear_memory()
        loaded = reg.get(serve_model.spec)
        fresh = serve_model.predict(TARGETS)
        persisted = loaded.predict(TARGETS)
        assert np.array_equal(fresh.values, persisted.values)
        assert persisted.pair_keys == fresh.pair_keys
        # synthesized traces match too (the runtime-query path)
        t_fresh = serve_model.synthesize(64)
        t_loaded = loaded.synthesize(64)
        assert np.array_equal(
            t_fresh.features, t_loaded.features
        )

    def test_lru_eviction_counts(self, serve_model):
        reg = ModelRegistry(root=None, mem_entries=1)
        reg.put(serve_model)
        reg.put(_variant(serve_model, code_version="other-build"))
        assert reg.stats.evictions == 1
        # memory-only registry: the evicted model is gone
        assert reg.get(serve_model.spec) is None
        assert reg.stats.misses == 1

    def test_eviction_falls_back_to_disk(self, tmp_path, serve_model):
        reg = ModelRegistry(tmp_path / "models", mem_entries=1)
        reg.put(serve_model)
        reg.put(_variant(serve_model, code_version="other-build"))
        assert reg.stats.evictions == 1
        assert reg.get(serve_model.spec) is not None
        assert reg.stats.disk_hits == 1

    def test_digests_lists_both_tiers(self, tmp_path, serve_model):
        reg = ModelRegistry(tmp_path / "models", mem_entries=1)
        other = _variant(serve_model, code_version="other-build")
        reg.put(serve_model)
        reg.put(other)  # evicts serve_model from memory, both on disk
        assert set(reg.digests()) == {serve_model.digest, other.digest}
        assert len(reg) == 2

    def test_corrupt_metadata_quarantines_and_misses(
        self, tmp_path, serve_model
    ):
        # self-healing contract: corruption never surfaces as an
        # exception — the entry is quarantined and the lookup misses
        reg = ModelRegistry(tmp_path / "models")
        reg.put(serve_model)
        reg.clear_memory()
        entry = (
            tmp_path / "models" / serve_model.digest[:2] / serve_model.digest
        )
        (entry / "meta.json").write_text("{ not json")
        assert reg.get(serve_model.spec) is None
        assert reg.stats.quarantined == 1
        assert reg.stats.misses == 1
        assert not entry.exists()
        qdir = tmp_path / "models" / "quarantine"
        assert (qdir / f"{serve_model.digest}-0" / "meta.json").exists()
        assert reg.quarantined_digests() == [serve_model.digest]
        # the digest is no longer listed, so get_or_fit would refit
        assert serve_model.digest not in reg.digests()

    def test_bit_flip_in_any_entry_file_quarantines(
        self, tmp_path, serve_model
    ):
        # regression: loads used to check only byte sizes, so a flipped
        # byte inside a matrix loaded cleanly and broke predictions later
        root = tmp_path / "models"
        reg = ModelRegistry(root)
        reg.put(serve_model)
        entry = root / serve_model.digest[:2] / serve_model.digest
        names = sorted(p.name for p in entry.iterdir())
        for n, name in enumerate(names, start=1):
            reg.clear_memory()
            path = entry / name
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
            assert reg.get(serve_model.spec) is None, name
            assert reg.stats.quarantined == n
            reg.put(serve_model)  # a clean entry for the next file
        assert reg.quarantined_digests() == [serve_model.digest]

    def test_bad_mem_entries_rejected(self):
        with pytest.raises(ServeError):
            ModelRegistry(root=None, mem_entries=0)


class TestColdRestart:
    def test_restarted_registry_answers_runtime_without_probing(
        self, tmp_path, serve_model, monkeypatch
    ):
        """A server restarted on a stored entry replays runtime queries
        against the entry's own profile: MultiMAPS never runs."""
        import repro.machine.multimaps as multimaps
        import repro.machine.profile as profile
        import repro.machine.systems as systems

        def runtime_s(registry) -> float:
            async def main():
                engine = QueryEngine(registry, default_model=serve_model.digest)
                await engine.start()
                answer = await engine.query(Query(target=64, kind="runtime"))
                await engine.stop()
                return answer.runtime_s

            return asyncio.run(main())

        root = tmp_path / "models"
        first = ModelRegistry(root)
        first.put(serve_model)
        in_process = runtime_s(first)

        def no_probe(*args, **kwargs):
            raise AssertionError("a restarted server probed the machine")

        monkeypatch.setattr(multimaps, "run_multimaps", no_probe)
        monkeypatch.setattr(profile, "run_multimaps", no_probe)
        monkeypatch.setattr(systems, "_PROFILE_CACHE", {})
        restarted = ModelRegistry(root)
        assert runtime_s(restarted) == in_process
        assert restarted.stats.disk_hits == 1
        loaded, stored = restarted.get(serve_model.spec).profile, serve_model.profile
        assert loaded is not stored
        for name in ("sample_hit_rates", "sample_bandwidths_gbs", "coefficients"):
            assert (
                getattr(loaded.surface, name).tobytes()
                == getattr(stored.surface, name).tobytes()
            ), name
        assert loaded.fp_rates_gflops == stored.fp_rates_gflops


class TestFitModel:
    def test_fit_loads_the_profile_stored_beside_its_cache(
        self, tmp_path, bw_machine, monkeypatch
    ):
        """A fit with a signature cache takes the profile a ``table1`` run
        stored under ``<cache-dir>/machines``: MultiMAPS never runs."""
        import pickle

        import repro.machine.multimaps as multimaps
        import repro.machine.profile as profile
        import repro.machine.systems as systems
        from repro.exec.sigcache import SignatureCache
        from repro.pipeline.experiment import Table1Config
        from repro.serve.registry import fit_model
        from repro.util.store import Store
        from tests.conftest import FAST_SETTINGS

        cache = SignatureCache(tmp_path / "signatures")
        # the reduced-budget profile under the default budget's key: a
        # probe could not produce it
        key = systems.profile_key(systems.get_spec("blue_waters_p1"), 100_000)
        Store(cache.root / systems.STORE_DIR, suffix=".pkl").put(
            key, bw_machine, pickle.dumps
        )

        def no_probe(*args, **kwargs):
            raise AssertionError("fit_model probed a stored machine")

        monkeypatch.setattr(multimaps, "run_multimaps", no_probe)
        monkeypatch.setattr(profile, "run_multimaps", no_probe)
        monkeypatch.setattr(systems, "_PROFILE_CACHE", {})
        model = fit_model(
            ModelSpec(app="jacobi", machine="blue_waters_p1",
                      train_counts=(4, 8, 16), code_version="test-build"),
            config=Table1Config(collection=FAST_SETTINGS, cache=cache),
        )
        for name in ("sample_hit_rates", "sample_bandwidths_gbs", "coefficients"):
            assert (
                getattr(model.profile.surface, name).tobytes()
                == getattr(bw_machine.surface, name).tobytes()
            ), name
        assert model.profile.fp_rates_gflops == bw_machine.fp_rates_gflops
