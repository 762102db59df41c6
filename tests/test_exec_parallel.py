"""Parallel execution substrate: pool determinism + signature cache.

The acceptance-critical property is that fanning collection out over a
process pool is invisible in the results: parallel and serial
`collect_signature` must produce bit-for-bit identical TraceFiles, and
a warm cache must return exactly what a fresh collection would.
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro.exec.pool import _WORKER_ENV, in_worker, resolve_workers, run_tasks
from repro.exec.sigcache import SCHEMA_VERSION, SignatureCache, app_token
from repro.pipeline.collect import (
    CollectionSettings,
    collect_signature,
    collect_signatures,
)

from repro.util.store import FRAME_MAGIC
from tests.conftest import FAST_COLLECTOR


def _square(x):
    return x * x


def _fail_on(x, bad):
    if x == bad:
        raise ValueError(f"task {x} failed")
    return x


def _observe_pool_state():
    return (os.getpid(), in_worker(), resolve_workers(4, 8))


class TestRunTasks:
    def test_results_in_task_order(self):
        tasks = [(i,) for i in range(20)]
        assert run_tasks(_square, tasks, workers=0) == [i * i for i in range(20)]
        assert run_tasks(_square, tasks, workers=3) == [i * i for i in range(20)]

    def test_serial_and_parallel_agree(self):
        tasks = [(i,) for i in range(7)]
        assert run_tasks(_square, tasks, workers=0) == run_tasks(
            _square, tasks, workers=2
        )

    def test_empty_task_list(self):
        assert run_tasks(_square, [], workers=4) == []

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="task 3 failed"):
            run_tasks(_fail_on, [(i, 3) for i in range(5)], workers=2)
        with pytest.raises(ValueError, match="task 3 failed"):
            run_tasks(_fail_on, [(i, 3) for i in range(5)], workers=0)

    def test_workers_run_in_other_processes(self):
        results = run_tasks(_observe_pool_state, [()] * 4, workers=2)
        pids = {pid for pid, _, _ in results}
        assert os.getpid() not in pids
        # workers are flagged, and nested fan-out degrades to serial
        assert all(flagged for _, flagged, _ in results)
        assert all(nested == 0 for _, _, nested in results)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1, 4)

    def test_resolve_semantics(self):
        assert resolve_workers(0, 10) == 0  # escape hatch
        assert resolve_workers(1, 10) == 0  # one worker = inline
        assert resolve_workers(8, 3) == 3  # capped at task count
        assert resolve_workers(2, 1) == 0  # single task stays inline
        auto = resolve_workers(None, 64)
        assert 0 <= auto <= (os.cpu_count() or 1)

    def test_in_worker_guard(self, monkeypatch):
        monkeypatch.setenv(_WORKER_ENV, "1")
        assert in_worker()
        assert resolve_workers(8, 8) == 0


def _interrupt_first(x):
    if x == 0:
        raise KeyboardInterrupt
    time.sleep(0.5)
    return x


class TestInterruptAndResolveEdges:
    def test_keyboard_interrupt_propagates_promptly(self):
        # Ctrl-C in a worker must not wait out the queued tasks: 20
        # half-second sleeps behind 2 workers would take ~5s drained,
        # but the interrupt propagates as soon as the first task's
        # reply lands, and the busy lane is killed
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_interrupt_first, [(i,) for i in range(20)], workers=2)
        assert time.monotonic() - start < 3.0

    def test_keyboard_interrupt_serial(self):
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_interrupt_first, [(0,)], workers=0)

    def test_auto_workers_inside_worker_stays_serial(self, monkeypatch):
        monkeypatch.setenv(_WORKER_ENV, "1")
        assert resolve_workers(None, 8) == 0

    def test_unknown_cpu_count_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(None, 8) == 0


def _traces_equal(a, b) -> bool:
    if (a.app, a.rank, a.n_ranks, a.target) != (b.app, b.rank, b.n_ranks, b.target):
        return False
    if sorted(a.blocks) != sorted(b.blocks):
        return False
    for block_id in a.blocks:
        ma = a.blocks[block_id].feature_matrix()
        mb = b.blocks[block_id].feature_matrix()
        if ma.shape != mb.shape or not np.array_equal(ma, mb):
            return False
    return True


def _signatures_equal(a, b) -> bool:
    if a.ranks != b.ranks or a.compute_times != b.compute_times:
        return False
    return all(_traces_equal(a.traces[r], b.traces[r]) for r in a.ranks)


class TestParallelCollection:
    N_RANKS = 4

    def _settings(self, workers):
        return CollectionSettings(
            ranks="all", collector=FAST_COLLECTOR, workers=workers
        )

    def test_parallel_collection_bit_identical_to_serial(
        self, small_jacobi, bw_machine
    ):
        serial = collect_signature(
            small_jacobi, self.N_RANKS, bw_machine.hierarchy, self._settings(0)
        )
        parallel = collect_signature(
            small_jacobi, self.N_RANKS, bw_machine.hierarchy, self._settings(2)
        )
        assert serial.ranks == list(range(self.N_RANKS))
        assert _signatures_equal(serial, parallel)

    def test_batch_collection_matches_individual(self, small_jacobi, bw_machine):
        settings = CollectionSettings(collector=FAST_COLLECTOR, workers=2)
        batch = collect_signatures(
            small_jacobi, [4, 8], bw_machine.hierarchy, settings
        )
        for count, sig in zip([4, 8], batch):
            alone = collect_signature(
                small_jacobi, count, bw_machine.hierarchy, settings
            )
            assert sig.n_ranks == count
            assert _signatures_equal(sig, alone)


class TestSignatureCache:
    def _settings(self):
        return CollectionSettings(collector=FAST_COLLECTOR, workers=0)

    def test_roundtrip_and_stats(self, tmp_path, small_jacobi, bw_machine):
        cache = SignatureCache(tmp_path)
        settings = self._settings()
        first = collect_signature(
            small_jacobi, 4, bw_machine.hierarchy, settings, cache=cache
        )
        assert (cache.stats.misses, cache.stats.stores) == (1, 1)
        second = collect_signature(
            small_jacobi, 4, bw_machine.hierarchy, settings, cache=cache
        )
        assert cache.stats.hits == 1
        assert _signatures_equal(first, second)

    def test_key_distinguishes_inputs(self, tmp_path, small_jacobi, bw_machine):
        cache = SignatureCache(tmp_path)
        settings = self._settings()
        base = cache.key_for(small_jacobi, 4, bw_machine.hierarchy, settings)
        assert base is not None
        assert base != cache.key_for(
            small_jacobi, 8, bw_machine.hierarchy, settings
        )
        other_coll = CollectionSettings(
            collector=type(FAST_COLLECTOR)(sample_accesses=999), workers=0
        )
        assert base != cache.key_for(
            small_jacobi, 4, bw_machine.hierarchy, other_coll
        )

    def test_workers_excluded_from_key(self, tmp_path, small_jacobi, bw_machine):
        cache = SignatureCache(tmp_path)
        k0 = cache.key_for(
            small_jacobi, 4, bw_machine.hierarchy,
            CollectionSettings(collector=FAST_COLLECTOR, workers=0),
        )
        k4 = cache.key_for(
            small_jacobi, 4, bw_machine.hierarchy,
            CollectionSettings(collector=FAST_COLLECTOR, workers=4),
        )
        assert k0 == k4

    def test_unstable_repr_is_uncacheable(self, tmp_path, bw_machine):
        class AdHocApp:
            name = "adhoc"

            def __init__(self):
                self.params = object()  # repr embeds a memory address

        cache = SignatureCache(tmp_path)
        key = cache.key_for(
            AdHocApp(), 4, bw_machine.hierarchy, self._settings()
        )
        assert key is None
        assert cache.stats.uncacheable == 1
        assert cache.get(key) is None  # None key is always a miss
        cache.put(key, "ignored")  # and never stored
        assert cache.stats.stores == 0

    @pytest.mark.parametrize(
        "garbage",
        [
            b"not a pickle",  # UnpicklingError
            b"garbage\n",  # ValueError: 'g' opcode parses an int argument
            b"",  # EOFError
        ],
    )
    def test_corrupt_entry_is_a_miss(
        self, tmp_path, small_jacobi, bw_machine, garbage
    ):
        cache = SignatureCache(tmp_path)
        settings = self._settings()
        key = cache.key_for(small_jacobi, 4, bw_machine.hierarchy, settings)
        cache.put(key, {"fake": True})
        (tmp_path / f"{key}.pkl").write_bytes(garbage)
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 1


class TestQuarantine:
    """Corrupt cache entries are moved aside — never silently deleted,
    never surfaced as exceptions — and counted."""

    def _settings(self):
        return CollectionSettings(collector=FAST_COLLECTOR, workers=0)

    def _seeded(self, tmp_path, small_jacobi, bw_machine):
        cache = SignatureCache(tmp_path)
        key = cache.key_for(
            small_jacobi, 4, bw_machine.hierarchy, self._settings()
        )
        cache.put(key, {"payload": list(range(100))})
        return cache, key

    def test_corrupt_entry_moved_to_quarantine(
        self, tmp_path, small_jacobi, bw_machine
    ):
        cache, key = self._seeded(tmp_path, small_jacobi, bw_machine)
        (tmp_path / f"{key}.pkl").write_bytes(b"\x00" * 32)
        assert cache.get(key) is None
        assert not (tmp_path / f"{key}.pkl").exists()
        (quarantined,) = cache.store.quarantined()[key]
        assert quarantined.read_bytes() == b"\x00" * 32  # preserved intact

    def test_hand_truncated_entry_is_quarantined(
        self, tmp_path, small_jacobi, bw_machine
    ):
        # digest framing catches a torn write: chop a valid entry in half
        cache, key = self._seeded(tmp_path, small_jacobi, bw_machine)
        path = tmp_path / f"{key}.pkl"
        blob = path.read_bytes()
        assert blob.startswith(FRAME_MAGIC)
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert len(cache.store.quarantined()[key]) == 1
        # the slot is free again: a re-store round-trips
        cache.put(key, {"payload": list(range(100))})
        assert cache.get(key) == {"payload": list(range(100))}

    def test_pre_digest_legacy_entry_is_a_miss(
        self, tmp_path, small_jacobi, bw_machine
    ):
        # schema v1 entries were raw pickles with no digest header; they
        # must load as misses (recollect), not as trusted data
        cache, key = self._seeded(tmp_path, small_jacobi, bw_machine)
        (tmp_path / f"{key}.pkl").write_bytes(
            pickle.dumps({"stale": "v1 entry"})
        )
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert len(cache.store.quarantined()[key]) == 1

    def test_repeated_corruption_keeps_every_copy(
        self, tmp_path, small_jacobi, bw_machine
    ):
        # regression: a second corruption of the same key used to move
        # its bytes over the first quarantined copy
        cache, key = self._seeded(tmp_path, small_jacobi, bw_machine)
        for junk in (b"first junk", b"second junk"):
            (tmp_path / f"{key}.pkl").write_bytes(junk)
            assert cache.get(key) is None
            cache.put(key, {"payload": list(range(100))})
        assert cache.stats.corrupt == 2
        kept = sorted(p.read_bytes() for p in cache.quarantine_root.iterdir())
        assert kept == [b"first junk", b"second junk"]

    def test_corruption_mirrored_into_run_report(
        self, tmp_path, small_jacobi, bw_machine
    ):
        from repro.exec.resilience import RunReport

        cache, key = self._seeded(tmp_path, small_jacobi, bw_machine)
        (tmp_path / f"{key}.pkl").write_bytes(b"junk")
        report = RunReport()
        cache.bind_report(report)
        assert cache.get(key) is None
        assert report.cache_corruptions == 1
        assert report.quarantined == [key]
        assert any("quarantine" in e for e in report.events)

    def test_missing_entry_is_plain_miss_not_corruption(
        self, tmp_path, small_jacobi, bw_machine
    ):
        cache = SignatureCache(tmp_path)
        key = cache.key_for(
            small_jacobi, 4, bw_machine.hierarchy, self._settings()
        )
        assert cache.get(key) is None
        assert cache.stats.corrupt == 0
        assert cache.stats.misses == 1

    def test_app_token_stable_across_instances(self, small_jacobi):
        clone = pickle.loads(pickle.dumps(small_jacobi))
        assert app_token(small_jacobi) == app_token(clone)

    def test_schema_version_in_key(self, tmp_path, small_jacobi, bw_machine):
        """Bumping SCHEMA_VERSION must change every key."""
        import repro.exec.sigcache as sigcache

        cache = SignatureCache(tmp_path)
        settings = self._settings()
        before = cache.key_for(small_jacobi, 4, bw_machine.hierarchy, settings)
        old = sigcache.SCHEMA_VERSION
        try:
            sigcache.SCHEMA_VERSION = old + 1
            after = cache.key_for(
                small_jacobi, 4, bw_machine.hierarchy, settings
            )
        finally:
            sigcache.SCHEMA_VERSION = old
        assert SCHEMA_VERSION == old
        assert before != after
