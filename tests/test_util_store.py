"""The content-addressed store behind every cache (DESIGN.md §7.13).

The contract, through the store's public API only: a commit is atomic
(a failing body leaves nothing behind), every read verifies (any damage
is a quarantine plus a miss, never an exception), quarantined copies
never overwrite each other, a key's lock admits one holder at a time
and is taken over once stale, and the memory tier and the budget GC
evict in the order they claim to.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.exec import faults
from repro.exec.faults import FaultPlan, FaultSpec
from repro.util.store import EVENTS, QUARANTINE_DIR, Store

KEY = "ab" + "0" * 62
VALUE = {"payload": [1, 2, 3]}
FILES = {"a.bin": b"alpha", "b.bin": b"beta"}


class Stats(Counter):
    def bump(self, name: str, n: int = 1) -> None:
        self[name] += n


def _store(root, **kwargs):
    stats = Stats()
    store = Store(
        root, stats=stats, counters={e: e for e in EVENTS}, **kwargs
    )
    return store, stats


def _files_under(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


def _damaged(blob: bytes):
    """Every truncation and every one-byte flip of ``blob``."""
    for cut in range(len(blob)):
        yield blob[:cut]
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0xFF
        yield bytes(flipped)


def _encode_dir(value):
    return FILES, {"value": value}


def _decode_dir(meta, files):
    assert files == FILES
    return meta["value"]


class TestCommit:
    def test_failed_encode_leaves_no_entry_and_no_tmp(self, tmp_path):
        store, stats = _store(tmp_path, mem_entries=4)

        def boom(value):
            raise RuntimeError("encoder died")

        with pytest.raises(RuntimeError):
            store.put(KEY, VALUE, boom)
        with pytest.raises(RuntimeError):
            store.put_dir(KEY, VALUE, boom)
        assert KEY not in store
        assert stats["stores"] == 0
        assert _files_under(tmp_path) == []

    def test_failed_write_leaves_no_entry_and_no_tmp(self, tmp_path):
        store, _ = _store(tmp_path)

        def half_then_boom(value):
            # the first member lands, the second cannot be written
            return {"a.bin": b"half an artif", "no-such-dir/b.bin": b""}, {}

        with pytest.raises(OSError):
            store.put_dir(KEY, VALUE, half_then_boom)
        assert not store.path(KEY).exists()
        assert _files_under(tmp_path) == []

    def test_round_trips_every_entry_kind(self, tmp_path):
        store, stats = _store(tmp_path, shard=True)
        store.put(KEY, VALUE, pickle.dumps)
        assert store.get(KEY, pickle.loads) == VALUE
        store.put_dir("cd" + KEY[2:], "dir value", _encode_dir)
        assert store.get_dir("cd" + KEY[2:], _decode_dir) == "dir value"
        assert store.keys() == sorted([KEY, "cd" + KEY[2:]])
        assert stats["disk_hits"] == 2 and stats["quarantined"] == 0


class TestVerifyOnGet:
    def test_damaged_file_entry_is_quarantine_and_miss(self, tmp_path):
        store, stats = _store(tmp_path)
        store.put(KEY, VALUE, pickle.dumps)
        blob = store.path(KEY).read_bytes()
        n = 0
        for damaged in _damaged(blob):
            store.path(KEY).write_bytes(damaged)
            assert store.get(KEY, pickle.loads) is None
            n += 1
            assert stats["quarantined"] == n
            assert not store.path(KEY).exists()
        assert stats["misses"] == n
        store.path(KEY).write_bytes(blob)  # the intact bytes still load
        assert store.get(KEY, pickle.loads) == VALUE

    def test_damaged_directory_entry_is_quarantine_and_miss(self, tmp_path):
        store, stats = _store(tmp_path)
        store.put_dir(KEY, "v", _encode_dir)
        entry = store.path(KEY)
        clean = {p.name: p.read_bytes() for p in entry.iterdir()}
        n = 0
        for name, blob in sorted(clean.items()):
            for damaged in _damaged(blob):
                store.put_dir(KEY, "v", _encode_dir)
                (entry / name).write_bytes(damaged)
                assert store.get_dir(KEY, _decode_dir) is None, name
                n += 1
                assert stats["quarantined"] == n
        assert stats["disk_hits"] == 0

    def test_damaged_entry_is_reported_by_peek_and_repaired_by_get(
        self, tmp_path
    ):
        store, stats = _store(tmp_path)
        store.put(KEY, VALUE, pickle.dumps)
        assert pickle.loads(store.peek(KEY)) == VALUE
        assert store.peek("ef" + KEY[2:]) is None  # missing
        dir_key = "cd" + KEY[2:]
        store.put_dir(dir_key, "v", _encode_dir)
        assert store.peek(dir_key)["value"] == "v"
        entry = store.path(dir_key)
        for name in sorted(p.name for p in entry.iterdir()):
            blob = (entry / name).read_bytes()
            for damaged in _damaged(blob):
                (entry / name).write_bytes(damaged)
                assert store.peek(dir_key) is None
            (entry / name).write_bytes(blob)
        store.path(KEY).write_bytes(b"junk")
        assert store.peek(KEY) is None  # a pure check...
        assert store.path(KEY).exists()
        assert stats["stores"] == 2 and sum(stats.values()) == 2
        assert store.get(KEY, pickle.loads) is None  # ...and the repair
        assert stats["quarantined"] == 1
        assert store.get_dir(dir_key, _decode_dir) == "v"

    def test_damaged_raw_npz_never_raises(self, tmp_path):
        # an .npz member is digested as raw bytes, so every damage to it
        # is quarantined, container metadata included, and nothing raises
        store, stats = _store(tmp_path)
        x = np.arange(64) % 5
        buf = io.BytesIO()
        np.savez_compressed(buf, x=x)
        blob = buf.getvalue()

        def encode(data):
            return {"artifact.npz": data}, {}

        n = 0
        for damaged in _damaged(blob):
            store.put_dir(KEY, blob, encode)
            (store.path(KEY) / "artifact.npz").write_bytes(damaged)
            assert store.get_dir(KEY, lambda meta, files: files) is None
            n += 1
            assert stats["quarantined"] == n
        store.put_dir(KEY, blob, encode)
        files = store.get_dir(KEY, lambda meta, files: files)
        with np.load(io.BytesIO(files["artifact.npz"])) as data:
            assert np.array_equal(data["x"], x)

    def test_unrecorded_raw_file_is_untrusted_but_kept(self, tmp_path):
        # a bare file carries no digest: a pure check never trusts it
        # and leaves it where it is, for the owner to replace
        store, stats = _store(tmp_path)
        store.path(KEY).write_text("{}")
        assert store.peek(KEY) is None
        assert store.path(KEY).exists() and stats["quarantined"] == 0

    def test_decode_failure_is_quarantine_and_miss(self, tmp_path):
        store, stats = _store(tmp_path)
        store.put(KEY, VALUE, lambda v: b"not a pickle")
        assert store.get(KEY, pickle.loads) is None
        assert stats["quarantined"] == 1 and stats["misses"] == 1

    def test_missing_entry_is_plain_miss(self, tmp_path):
        store, stats = _store(tmp_path)
        assert store.get(KEY, pickle.loads) is None
        assert stats["misses"] == 1 and stats["quarantined"] == 0


class TestQuarantineNames:
    def test_repeated_corruption_keeps_every_copy(self, tmp_path):
        store, _ = _store(tmp_path)
        for n in range(3):
            store.put(KEY, VALUE, pickle.dumps)
            store.path(KEY).write_bytes(f"junk {n}".encode())
            assert store.get(KEY, pickle.loads) is None
        copies = store.quarantined()[KEY]
        assert [p.name for p in copies] == [f"{KEY}-{n}" for n in range(3)]
        assert [p.read_bytes() for p in copies] == [
            f"junk {n}".encode() for n in range(3)
        ]

    def test_foreign_copy_is_never_overwritten(self, tmp_path):
        store, _ = _store(tmp_path)
        qdir = tmp_path / QUARANTINE_DIR
        qdir.mkdir()
        (qdir / f"{KEY}-0").write_bytes(b"someone else's copy")
        store.put(KEY, VALUE, lambda v: b"not a pickle")
        assert store.get(KEY, pickle.loads) is None
        assert (qdir / f"{KEY}-0").read_bytes() == b"someone else's copy"
        assert (qdir / f"{KEY}-1").exists()

    def test_racing_quarantines_move_once_and_leave_no_claims(self, tmp_path):
        store, stats = _store(tmp_path)
        for round_ in range(10):
            store.put(KEY, VALUE, pickle.dumps)
            moved = []
            barrier = threading.Barrier(6)

            def race():
                barrier.wait(timeout=10)
                moved.append(store.quarantine(KEY, "race"))

            threads = [threading.Thread(target=race) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            assert sum(p is not None for p in moved) == 1
            assert len(store.quarantined()[KEY]) == round_ + 1
        assert stats["quarantined"] == 10


class TestLock:
    def test_one_holder_at_a_time(self, tmp_path):
        store, stats = _store(
            tmp_path, lock_poll_s=0.001, lock_stale_s=60.0, lock_wait_s=60.0
        )
        n_threads = (os.cpu_count() or 1) + 4
        rounds = 5
        holders, peak, taken = [0], [0], [0]
        guard = threading.Lock()

        def worker():
            for _ in range(rounds):
                assert store.acquire(KEY) is None
                with guard:
                    holders[0] += 1
                    peak[0] = max(peak[0], holders[0])
                time.sleep(0.0005)
                with guard:
                    holders[0] -= 1
                    taken[0] += 1
                store.release(KEY)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert peak[0] == 1
        assert taken[0] == n_threads * rounds
        assert stats["lock_takeovers"] == 0
        assert not store.lock_path(KEY).exists()

    def test_stale_lock_taken_over_once(self, tmp_path):
        store, stats = _store(tmp_path, lock_poll_s=0.001, lock_stale_s=30.0)
        lock = store.lock_path(KEY)
        lock.parent.mkdir(parents=True)
        lock.write_text("99999 dead holder\n")
        old = time.time() - 120.0
        os.utime(lock, (old, old))
        assert store.acquire(KEY) is None  # held by us now
        assert stats["lock_takeovers"] == 1
        store.release(KEY)
        assert store.acquire(KEY) is None
        store.release(KEY)
        assert stats["lock_takeovers"] == 1

    def test_bounded_wait_raises_and_leaves_fresh_lock(self, tmp_path):
        store, stats = _store(
            tmp_path, lock_poll_s=0.01, lock_stale_s=600.0, lock_wait_s=0.05
        )
        assert store.try_lock(KEY)  # another holder
        with pytest.raises(TimeoutError, match="timed out"):
            store.acquire(KEY)
        assert stats["lock_waits"] >= 1 and stats["lock_takeovers"] == 0
        assert store.lock_path(KEY).exists()

    def test_waiter_adopts_holders_result(self, tmp_path):
        store, _ = _store(tmp_path, lock_poll_s=0.001, lock_wait_s=10.0)
        assert store.try_lock(KEY)  # another holder
        polls = []

        def adopt():
            polls.append(1)
            return "theirs" if len(polls) >= 3 else None

        assert store.acquire(KEY, adopt) == "theirs"
        assert store.lock_path(KEY).exists()  # still the holder's

    def test_stale_lock_fault_plants_a_dead_holder(self, tmp_path):
        store, stats = _store(
            tmp_path, lock_poll_s=0.001, faults={"lock": "stale-lock"}
        )
        plan = FaultPlan(specs=(FaultSpec(key="job:1", kind="stale-lock"),))
        with faults.injected(plan):
            assert store.acquire(KEY, fault_key="job:1") is None
        store.release(KEY)
        assert stats["lock_takeovers"] == 1


class TestMemoryTierAndGC:
    def test_memory_evictions_counted(self):
        store, stats = _store(None, mem_entries=2)
        store.put("a", 1, pickle.dumps)
        store.put("b", 2, pickle.dumps)
        assert store.get("a", pickle.loads) == 1  # a is now most recent
        store.put("c", 3, pickle.dumps)  # evicts b, the LRU
        assert stats["evictions"] == 1
        assert store.get("b", pickle.loads) is None
        assert store.memory_keys() == ["a", "c"]

    def test_memory_hit_touches_no_file(self, tmp_path):
        store, stats = _store(tmp_path, mem_entries=2)
        store.put(KEY, VALUE, pickle.dumps)
        store.path(KEY).unlink()
        assert store.get(KEY, pickle.loads) == VALUE
        assert stats["mem_hits"] == 1 and stats["disk_hits"] == 0

    def test_gc_evicts_in_access_order_and_protects(self, tmp_path):
        store, stats = _store(tmp_path)
        keys = ["a" * 64, "b" * 64, "c" * 64]
        base = time.time() - 1000.0
        for i, key in enumerate(keys):
            store.put(key, VALUE, pickle.dumps)
            os.utime(store.path(key), (base + i, base + i))
        size = store.disk_bytes() // 3
        assert store.get(keys[0], pickle.loads) == VALUE  # a: now newest
        left = store.gc(2 * size)
        assert store.keys() == [keys[0], keys[2]]  # b was the LRU
        assert left == 2 * size and stats["gc_evictions"] == 1
        # c is now the LRU, but protected: a goes instead
        assert store.gc(0, protect=keys[2]) == size
        assert store.keys() == [keys[2]]
        assert stats["gc_evictions"] == 2

    def test_gc_ignores_quarantined_entries(self, tmp_path):
        store, _ = _store(tmp_path, shard=True)
        store.put(KEY, VALUE, lambda v: b"not a pickle")
        assert store.get(KEY, pickle.loads) is None
        assert store.keys() == [] and store.disk_bytes() == 0
        assert store.gc(0) == 0
        assert len(store.quarantined()[KEY]) == 1


def test_put_fault_truncates_the_committed_entry(tmp_path):
    store, stats = _store(tmp_path, faults={"put": "corrupt"})
    plan = FaultPlan(specs=(FaultSpec(key=KEY, kind="corrupt", attempts=(2,)),))
    with faults.injected(plan):
        store.put(KEY, VALUE, pickle.dumps)  # store 1: clean
        assert store.get(KEY, pickle.loads) == VALUE
        store.put(KEY, VALUE, pickle.dumps)  # store 2: truncated
    assert store.get(KEY, pickle.loads) is None
    assert stats["quarantined"] == 1


def test_directory_fault_truncates_a_payload_member(tmp_path):
    store, stats = _store(tmp_path, faults={"get": "corrupt-node-artifact"})
    store.put_dir(KEY, "v", _encode_dir)
    manifest = (store.path(KEY) / "meta.json").read_bytes()
    plan = FaultPlan(specs=(
        FaultSpec(key="node:x", kind="corrupt-node-artifact"),
    ))
    with faults.injected(plan):
        assert store.get_dir(KEY, _decode_dir, fault_key="node:x") is None
    (copy,) = store.quarantined()[KEY]
    assert (copy / "meta.json").read_bytes() == manifest
    assert (copy / "a.bin").read_bytes() == FILES["a.bin"][:2]
    assert stats["quarantined"] == 1


def test_manifest_records_member_digests(tmp_path):
    store, _ = _store(tmp_path)
    store.put_dir(KEY, "v", _encode_dir)
    doc = json.loads((store.path(KEY) / "meta.json").read_text())
    assert doc["value"] == "v"
    assert sorted(doc["files"]) == sorted(FILES)
    assert len(doc["sha256"]) == 64
