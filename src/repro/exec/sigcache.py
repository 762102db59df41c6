"""On-disk memoization of collected application signatures.

Collection is fully deterministic: the trace produced for ``(app,
n_ranks, hierarchy, CollectorConfig, rng root seed)`` never changes, so
re-collecting it — the dominant cost of every experiment and benchmark
— is pure waste.  This cache stores pickled
:class:`~repro.trace.signature.ApplicationSignature` objects keyed by a
SHA-256 digest of the full determinism surface plus a schema version
(bump :data:`SCHEMA_VERSION` whenever collection semantics change and
every old entry invalidates itself).

Keys are built from ``repr`` of frozen dataclasses, which is stable
across processes.  Anything whose repr embeds a memory address (the
``object`` default) is *uncacheable*: the cache refuses to key it
rather than silently never hitting, and counts the refusal in
:class:`CacheStats`.

Entries live in a :class:`~repro.util.store.Store` (``<key>.pkl``
files framed with their SHA-256), so they are **corruption-safe**: a
truncated, bit-flipped, garbage, or foreign file is never an error and
never deleted silently — the store moves it to ``quarantine/`` for
post-mortem, it is counted in ``CacheStats.corrupt``, and the caller
sees an ordinary miss, so pipeline code recollects and repairs the
entry automatically.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.obs.metrics import CounterSet
from repro.util.rng import DEFAULT_ROOT_SEED
from repro.util.store import QUARANTINE_DIR, Store

#: bump when collection output semantics change; invalidates all entries
#: (2: digest-framed entry format; 3: the shared store's frame; 4: traces
#: pickle their columns instead of per-instruction records)
SCHEMA_VERSION = 4

#: environment override for the cache directory
ENV_CACHE_ROOT = "REPRO_SIGNATURE_CACHE"

#: store events -> :class:`CacheStats` counters
_COUNTERS = {
    "disk_hits": "hits",
    "misses": "misses",
    "stores": "stores",
    "quarantined": "corrupt",
}


def _stable_token(obj) -> Optional[str]:
    """``repr(obj)`` when stable across processes, else ``None``."""
    text = repr(obj)
    if " at 0x" in text:
        return None
    return text


def app_token(app) -> Optional[str]:
    """Canonical description of an app proxy's identity.

    App proxies carry their entire configuration in instance attributes
    (frozen params dataclass + scaling mode), so the class name plus
    sorted attribute reprs pin down collection output exactly.
    """
    parts = [type(app).__name__, getattr(app, "name", "?")]
    for attr, value in sorted(vars(app).items()):
        token = _stable_token(value)
        if token is None:
            return None
        parts.append(f"{attr}={token}")
    return ";".join(parts)


@dataclass
class CacheStats(CounterSet):
    """Counters for one cache instance's lifetime (``cache.*`` metrics)."""

    PREFIX = "cache"

    hits: int = 0
    misses: int = 0
    stores: int = 0
    uncacheable: int = 0
    corrupt: int = 0


class SignatureCache:
    """Directory of pickled signatures, one file per key.

    The default root is ``$REPRO_SIGNATURE_CACHE`` or
    ``~/.cache/repro/signatures``.  Writes are atomic (temp file +
    rename), so concurrent processes can share a cache directory; a
    racing double-store just writes the same bytes twice.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        if root is None:
            root = os.environ.get(ENV_CACHE_ROOT) or (
                Path.home() / ".cache" / "repro" / "signatures"
            )
        self.root = Path(root)
        self.stats = CacheStats()
        self._report = None
        self.store = Store(
            self.root,
            suffix=".pkl",
            stats=self.stats,
            counters=_COUNTERS,
            faults={"put": "corrupt"},
            on_quarantine=self._mirror_quarantine,
        )

    def bind_report(self, report) -> None:
        """Mirror corruption events into a resilience ``RunReport``."""
        self._report = report

    def _mirror_quarantine(self, key: str, reason: str) -> None:
        if self._report is not None:
            self._report.bump("cache_corruptions")
            self._report.quarantined.append(key)
            self._report.record(f"quarantined cache entry {key}: {reason}")

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    # ------------------------------------------------------------------
    # keying

    def key_for(
        self,
        app,
        n_ranks: int,
        hierarchy,
        settings,
        *,
        root_seed: int = DEFAULT_ROOT_SEED,
    ) -> Optional[str]:
        """Digest of the collection determinism surface, or ``None``.

        ``None`` means some component has no stable identity (e.g. an
        ad-hoc app object) and the caller must collect uncached.
        """
        app_tok = app_token(app)
        hier_tok = _stable_token(hierarchy)
        ranks_tok = _stable_token(settings.ranks)
        coll_tok = _stable_token(settings.collector)
        if None in (app_tok, hier_tok, ranks_tok, coll_tok):
            self.stats.bump("uncacheable")
            return None
        blob = "\n".join(
            [
                f"schema={SCHEMA_VERSION}",
                f"app={app_tok}",
                f"n_ranks={n_ranks}",
                f"hierarchy={hier_tok}",
                f"ranks={ranks_tok}",
                f"collector={coll_tok}",
                f"root_seed={root_seed}",
            ]
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # storage

    def get(self, key: Optional[str]):
        """Cached signature for ``key``, or ``None`` on any miss.

        Corrupt entries (failed digest, unpicklable, foreign format) are
        quarantined and reported as misses — callers never see an
        exception, they just recollect.
        """
        if key is None:
            self.stats.bump("misses")
            return None
        return self.store.get(key, pickle.loads)

    def put(self, key: Optional[str], signature) -> None:
        """Store ``signature`` under ``key`` atomically (no-op if None)."""
        if key is None:
            return
        self.store.put(
            key,
            signature,
            lambda sig: pickle.dumps(sig, protocol=pickle.HIGHEST_PROTOCOL),
        )
