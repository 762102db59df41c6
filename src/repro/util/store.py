"""One content-addressed store: the whole lifecycle of a keyed entry.

Signatures (:mod:`repro.exec.sigcache`), reuse profiles
(:class:`repro.cache.reuse.ProfileCache`), machine profiles
(:func:`repro.machine.systems.get_machine`), fitted models
(:mod:`repro.serve.registry`) and DAG node artifacts
(:mod:`repro.pipeline.dag`) are all kept under a digest of their inputs,
with the lifecycle this class owns (DESIGN.md §7.13):

- key -> path: ``<root>/<entries>/[<key[:2]>/]<key><suffix>``;
- commit: one file or one directory, renamed into place whole
  (:mod:`repro.util.atomic`) with the SHA-256 that verifies it — in a
  frame header (:func:`frame`) or in a directory's self-digesting
  ``meta.json`` manifest;
- verify-on-get: any read, digest or decode failure moves the entry to
  ``<root>/quarantine/<key>-<n>`` (never overwriting a copy) and is a
  miss, so the caller recomputes; :meth:`Store.peek` is the same check
  with no side effect, for reports;
- one ``O_CREAT|O_EXCL`` lock per key under ``<root>/locks/``, taken
  over when older than ``lock_stale_s``, waited on for at most
  ``lock_wait_s``;
- a memory LRU of decoded values (a hit is one dict lookup: no file, no
  hash) and a byte-budget GC in access order (a disk hit refreshes an
  entry's mtime).

Owners map the store's :data:`EVENTS` onto their own counters, and name
the :mod:`repro.exec.faults` kind that fires at each fault site:
``put`` truncates an entry just committed, ``get`` one about to be
verified, ``lock`` plants a stale lockfile before acquiring.  In a
directory entry a fault truncates one payload member, not the manifest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.log import get_logger
from repro.util.atomic import atomic_dir, atomic_writer
from repro.util.errors import CacheCorruptionError

log = get_logger("util.store")

#: file-entry frame: magic, 64 hex digest chars, newline, payload
FRAME_MAGIC = b"repro-store\x00v1\n"
_HEADER_LEN = len(FRAME_MAGIC) + 65

#: a directory entry's manifest: owner metadata, ``files`` (member ->
#: SHA-256) and ``sha256``, the digest of everything else in it
MANIFEST = "meta.json"
QUARANTINE_DIR = "quarantine"
LOCKS_DIR = "locks"

EVENTS = (
    "mem_hits", "disk_hits", "misses", "stores", "evictions",
    "quarantined", "gc_evictions", "lock_waits", "lock_takeovers",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _corrupt(reason: str) -> CacheCorruptionError:
    return CacheCorruptionError(reason, stage="store")


def frame(payload: bytes) -> bytes:
    return FRAME_MAGIC + _sha256(payload).encode("ascii") + b"\n" + payload


def unframe(blob: bytes) -> bytes:
    """The payload of a framed entry, or :class:`CacheCorruptionError`."""
    if not blob.startswith(FRAME_MAGIC) or blob[_HEADER_LEN - 1:_HEADER_LEN] != b"\n":
        raise _corrupt("missing or foreign entry header")
    payload = blob[_HEADER_LEN:]
    if _sha256(payload).encode("ascii") != blob[len(FRAME_MAGIC):_HEADER_LEN - 1]:
        raise _corrupt("content digest mismatch")
    return payload


def _render(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _manifest(meta: Mapping, files: Mapping[str, bytes]) -> bytes:
    body = dict(meta, files={n: _sha256(d) for n, d in sorted(files.items())})
    return _render(dict(body, sha256=_sha256(_render(body))))


def _read_dir(path: Path) -> Tuple[dict, Dict[str, bytes]]:
    """A directory entry's verified ``(meta, {member: bytes})``: the
    manifest must re-render to its own bytes, the members to theirs."""
    raw = (path / MANIFEST).read_bytes()
    meta = json.loads(raw)
    meta.pop("sha256", None)
    if _render(dict(meta, sha256=_sha256(_render(meta)))) != raw:
        raise _corrupt("manifest digest mismatch")
    files = {name: (path / name).read_bytes() for name in meta["files"]}
    for name, data in files.items():
        if _sha256(data) != meta["files"][name]:
            raise _corrupt(f"member {name} digest mismatch")
    return meta, files


def _entry_bytes(path: Path) -> int:
    try:
        if path.is_dir():
            return sum(p.stat().st_size for p in path.iterdir())
        return path.stat().st_size
    except OSError:  # concurrent delete
        return 0


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


class Store:
    """Keyed entries under ``root`` (``None``: memory tier only).

    ``counters`` maps an event of :data:`EVENTS` to the name passed to
    ``stats.bump`` (unmapped events are not counted); ``faults`` maps a
    fault site to the fault kind that fires there; ``fault_files`` maps
    a spec's ``feature`` to the member a fault truncates in a directory
    entry (default: its first payload member); ``on_quarantine(key,
    reason)`` follows each quarantine.
    """

    def __init__(
        self,
        root: Union[str, Path, None],
        *,
        entries: str = "",
        suffix: str = "",
        shard: bool = False,
        mem_entries: int = 0,
        stats=None,
        counters: Optional[Mapping[str, str]] = None,
        faults: Optional[Mapping[str, str]] = None,
        fault_files: Optional[Mapping[str, str]] = None,
        on_quarantine: Optional[Callable[[str, str], None]] = None,
        lock_stale_s: float = 30.0,
        lock_poll_s: float = 0.05,
        lock_wait_s: float = 600.0,
    ):
        self.root = Path(root) if root is not None else None
        self.entries, self.suffix, self.shard = entries, suffix, shard
        self.mem_entries = mem_entries
        self.stats = stats
        self.counters = dict(counters or {})
        self.faults = dict(faults or {})
        self.fault_files = dict(fault_files or {})
        self.on_quarantine = on_quarantine
        self.lock_stale_s = lock_stale_s
        self.lock_poll_s = lock_poll_s
        self.lock_wait_s = lock_wait_s
        self._mem: "OrderedDict[str, Any]" = OrderedDict()

    def _count(self, event: str) -> None:
        name = self.counters.get(event)
        if name is not None:
            self.stats.bump(name)

    # -- layout ---------------------------------------------------------

    def path(self, key: str) -> Path:
        base = self.root / self.entries
        return (base / key[:2] if self.shard else base) / f"{key}{self.suffix}"

    def keys(self) -> List[str]:
        """Keys of the committed (not quarantined) entries on disk."""
        if self.root is None:
            return []
        pattern = ("*/*" if self.shard else "*") + self.suffix
        skip = (QUARANTINE_DIR, LOCKS_DIR)
        return sorted(
            p.name[: len(p.name) - len(self.suffix)]
            for p in (self.root / self.entries).glob(pattern)
            if not p.name.startswith(".")
            and p.name not in skip
            and p.parent.name not in skip
        )

    def __contains__(self, key: str) -> bool:
        return key in self._mem or (
            self.root is not None and self.path(key).exists()
        )

    # -- memory tier ----------------------------------------------------

    def _remember(self, key: str, value) -> None:
        if self.mem_entries:
            self._mem[key] = value
            self._mem.move_to_end(key)
            while len(self._mem) > self.mem_entries:
                self._mem.popitem(last=False)
                self._count("evictions")

    def memory_keys(self) -> List[str]:
        return list(self._mem)

    def clear_memory(self) -> None:
        self._mem.clear()

    # -- commit ---------------------------------------------------------

    def put(self, key: str, value, encode: Callable[[Any], bytes]) -> None:
        """Remember ``value`` and commit ``encode(value)`` framed.

        ``encode`` runs first, so when it raises nothing is stored; a
        failed disk write leaves the memory entry.
        """
        blob = None if self.root is None else frame(encode(value))
        self._count("stores")
        self._remember(key, value)
        if blob is not None:
            with atomic_writer(self.path(key)) as tmp:
                tmp.write_bytes(blob)
            self._fault_truncate("put", key)

    def put_dir(
        self,
        key: str,
        value,
        encode: Callable[[Any], Tuple[Mapping[str, bytes], Mapping]],
    ) -> None:
        """Like :meth:`put`, committing the ``(files, meta)`` of
        ``encode(value)`` as a directory with its manifest.  If the
        directory appeared meanwhile, the other writer stored the same."""
        encoded = None if self.root is None else encode(value)
        self._count("stores")
        self._remember(key, value)
        if encoded is not None:
            files, meta = encoded
            with atomic_dir(self.path(key)) as tmp:
                for name, data in files.items():
                    (tmp / name).write_bytes(data)
                (tmp / MANIFEST).write_bytes(_manifest(meta, files))
            self._fault_truncate("put", key)

    # -- verify-on-get --------------------------------------------------

    def get(self, key: str, decode: Callable[[bytes], Any]):
        """The value under ``key``, or ``None`` on a miss."""
        return self._get(key, lambda path: decode(unframe(path.read_bytes())))

    def get_dir(
        self,
        key: str,
        decode: Callable[[dict, Dict[str, bytes]], Any],
        *,
        fault_key: Optional[str] = None,
    ):
        """Like :meth:`get`, for directory entries: ``decode(meta, files)``.
        ``fault_key`` names the entry to the fault plan instead of ``key``."""
        return self._get(key, lambda path: decode(*_read_dir(path)), fault_key)

    def peek(self, key: str):
        """The entry under ``key``, verified as on a get but with no side
        effect (no memory tier, counter, fault, quarantine or mtime
        touch): a directory entry's manifest, a framed file's payload,
        ``None`` when missing or damaged.  For reports that must not
        repair what they read."""
        try:
            path = self.path(key)
            if path.is_dir():
                return _read_dir(path)[0]
            return unframe(path.read_bytes())
        except Exception:  # noqa: BLE001 - missing, unreadable or damaged
            return None

    def _get(self, key: str, read: Callable[[Path], Any], fault_key=None):
        value = self._mem.get(key)
        if value is not None:
            self._mem.move_to_end(key)
            self._count("mem_hits")
            return value
        path = None if self.root is None else self.path(key)
        if path is not None and path.exists():
            self._fault_truncate("get", key, fault_key)
            try:
                value = read(path)
            except Exception as exc:  # noqa: BLE001 - any damage
                if os.path.lexists(path):  # vanished: a plain miss
                    self.quarantine(key, f"{type(exc).__name__}: {exc}")
            else:
                self._count("disk_hits")
                try:
                    os.utime(path)  # the access time budget GC orders by
                except OSError:  # a read-only store still serves hits
                    pass
                self._remember(key, value)
                return value
        self._count("misses")
        return None

    # -- quarantine -----------------------------------------------------

    def quarantine(self, key: str, reason: str) -> Optional[Path]:
        """Move ``key``'s entry to ``quarantine/<key>-<n>`` and count it.

        The first free ``n`` is claimed by an exclusive create before
        the move, so no copy is ever overwritten, not even by another
        process.  ``None`` when the entry was gone (or cannot move).
        """
        path = self.path(key)
        qdir = self.root / QUARANTINE_DIR
        dest = None
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            is_dir = path.is_dir()
            for n in itertools.count():
                claim = qdir / f"{key}-{n}"
                try:
                    if is_dir:
                        claim.mkdir()
                    else:
                        os.close(os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                except FileExistsError:
                    continue
                dest = claim
                break
            os.replace(path, dest)  # onto our own empty claim
        except OSError as exc:  # moved by a concurrent reader, or read-only
            if dest is not None:
                _remove(dest)
            log.warning("could not quarantine %s: %s", path.name, exc)
            return None
        self._mem.pop(key, None)
        self._count("quarantined")
        log.warning("quarantined %s -> %s: %s", path.name, dest, reason)
        if self.on_quarantine is not None:
            self.on_quarantine(key, reason)
        return dest

    def quarantined(self) -> Dict[str, List[Path]]:
        """Quarantined copies by key, oldest first."""
        found: Dict[str, List[Path]] = {}
        qdir = None if self.root is None else self.root / QUARANTINE_DIR
        for p in qdir.iterdir() if qdir and qdir.is_dir() else ():
            key, _, n = p.name.rpartition("-")
            if key and n.isdigit():
                found.setdefault(key, []).append(p)
        for copies in found.values():
            copies.sort(key=lambda p: int(p.name.rpartition("-")[2]))
        return found

    # -- locks ----------------------------------------------------------

    def lock_path(self, key: str) -> Path:
        return self.root / LOCKS_DIR / f"{key}.lock"

    def try_lock(self, key: str) -> bool:
        """Take ``key``'s lock now, or ``False``.  A lock older than
        ``lock_stale_s`` lost its holder: it is removed (and counted) so
        the next try takes it."""
        path = self.lock_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - path.stat().st_mtime
                if age > self.lock_stale_s:
                    os.remove(path)
                    self._count("lock_takeovers")
                    log.warning("took over stale lock %s (age %.1fs)", path, age)
            except OSError:  # released, or taken over by another waiter
                pass
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()} {time.time():.6f}\n")
        return True

    def release(self, key: str) -> None:
        try:
            os.remove(self.lock_path(key))
        except OSError:  # pragma: no cover - already taken over
            pass

    def acquire(self, key: str, adopt: Callable[[], Any] = lambda: None, *,
                fault_key: Optional[str] = None):
        """Hold ``key``'s lock, or take what another holder produced.

        Between polls, and once more on winning the lock, ``adopt()``
        looks for the other holder's result.  Returns ``None`` when the
        caller holds the lock (and must :meth:`release` it), else what
        ``adopt`` found.  :class:`TimeoutError` after ``lock_wait_s``.
        """
        if self._planned("lock", fault_key or key) is not None:
            path = self.lock_path(key)  # a dead holder's lock, already stale
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("0 0.0\n")
            stale = time.time() - self.lock_stale_s - 60.0
            os.utime(path, (stale, stale))
        waited = 0.0
        while not self.try_lock(key):
            self._count("lock_waits")
            time.sleep(self.lock_poll_s)
            waited += self.lock_poll_s
            found = adopt()
            if found is not None:
                return found
            if waited >= self.lock_wait_s:
                raise TimeoutError(
                    f"timed out after {self.lock_wait_s:.0f}s waiting for "
                    f"the lock of {key}"
                )
        found = adopt()
        if found is not None:
            self.release(key)
        return found

    # -- budget GC ------------------------------------------------------

    def disk_bytes(self) -> int:
        return sum(_entry_bytes(self.path(k)) for k in self.keys())

    def gc(self, budget_bytes: float, *, protect: Optional[str] = None) -> int:
        """Evict least-recently-used entries until under ``budget_bytes``,
        never ``protect``; return the bytes left.  An eviction renames
        the entry away before deleting it, so readers see a miss, never
        half an entry."""
        entries = []
        for key in self.keys():
            path = self.path(key)
            try:
                entries.append((path.stat().st_mtime, _entry_bytes(path), key))
            except OSError:  # pragma: no cover - concurrent eviction
                continue
        total = sum(nbytes for _, nbytes, _ in entries)
        for _, nbytes, key in sorted(entries, key=lambda e: e[0]):
            if total <= budget_bytes:
                break
            if key == protect:
                continue
            path = self.path(key)
            doomed = path.with_name(f".gc-{os.getpid()}-{path.name}")
            try:
                os.replace(path, doomed)
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            _remove(doomed)
            self._mem.pop(key, None)
            total -= nbytes
            self._count("gc_evictions")
            log.warning("GC evicted %s (%d bytes)", path.name, nbytes)
        return total

    # -- fault injection ------------------------------------------------

    def _planned(self, site: str, fault_key: str):
        kind = self.faults.get(site)
        if kind is None:
            return None
        from repro.exec.faults import planned  # repro.exec imports this module

        return planned(fault_key, kind)

    def _fault_truncate(self, site: str, key: str, fault_key=None) -> None:
        spec = self._planned(site, fault_key or key)
        if spec is not None:
            path = self.path(key)
            if path.is_dir():
                member = self.fault_files.get(spec.feature)
                path = path / member if member else min(
                    p for p in path.iterdir() if p.name != MANIFEST
                )
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
            log.warning("fault plan truncated %s", path)
