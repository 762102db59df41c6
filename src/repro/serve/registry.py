"""Fitted-model registry: fit once, answer forever.

A *model* is everything needed to answer every query kind without
touching the training pipeline or probing the machine again: the
batched fit matrices (:class:`~repro.core.batchfit.BatchFitResult`
behind a :class:`~repro.core.fitting.BatchedFitReport`), the synthesis
template trace, and the machine profile runtime queries replay against
(built once, when the model is fitted).  Models are keyed by a SHA-256
**content digest** of their identity — application, machine, training
core counts, cache engine, canonical-form set, and the code version
that fitted them (a digest of the package's sources) — so a registry
can never serve a stale fit for changed inputs: a different identity is
a different digest is a different entry.

Persistence is one :class:`~repro.util.store.Store` (DESIGN.md §7.13):
each model is a ``<digest[:2]>/<digest>/`` directory of ``fit.npz``
(:meth:`~repro.core.fitting.BatchedFitReport.save_npz`, the file the
pipeline DAG's fit node commits), ``template.npz``, ``machine.pkl``
(the :class:`~repro.machine.profile.MachineProfile`, pickled as the
machine-profile store keeps it) and a ``meta.json`` manifest with the
spec and every member's digest, behind a small memory LRU
(``serve.registry.*`` metrics).  A server started on an existing entry
neither probes the machine nor imports scipy.  The store makes the
registry self-healing and bounded: a load that fails verification is
quarantined and reported as a **miss**, so ``get_or_fit`` refits; an
optional ``budget_mb`` GCs least-recently-used entries after each
store; and ``get_or_fit`` fits under a per-digest lock, so concurrent
processes fit a model once (a lock older than ``lock_stale_s`` is taken
over).
"""

from __future__ import annotations

import hashlib
import io
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cache.engine import ENGINE_NAMES
from repro.core.canonical import FORM_SETS
from repro.core.extrapolate import fit_traces, synthesize_from_prediction
from repro.core.fitting import BatchedFitReport, SweepPrediction
from repro.machine.profile import MachineProfile
from repro.machine.systems import STORE_DIR, get_machine
from repro.obs.manifest import default_code_version
from repro.obs.metrics import REGISTRY, CounterSet
from repro.obs.trace import span
from repro.trace.tracefile import TraceFile
from repro.util.errors import ServeError
from repro.util.store import EVENTS, Store

#: 2: one fit bundle per entry instead of a file per matrix;
#: 3: the entry carries the model's machine profile
SCHEMA_VERSION = 3

#: the entry member holding the model's machine profile
MACHINE_FILE = "machine.pkl"

#: fault-plan ``feature`` → the entry file a ``corrupt-model-entry``
#: spec truncates
FAULT_FILES = {
    "meta": "meta.json",
    "matrix": "fit.npz",
    "template": "template.npz",
    "machine": MACHINE_FILE,
}


@dataclass(frozen=True)
class ModelSpec:
    """Identity of one fitted model — everything the fit depends on.

    ``train_counts`` are canonicalized (sorted, deduplicated) so the
    digest is insensitive to argument order.  ``code_version`` defaults
    to :func:`~repro.obs.manifest.default_code_version`, the digest of
    the package's sources — pass it explicitly to query for a model
    fitted by an older build.
    """

    app: str
    machine: str = "blue_waters_p1"
    train_counts: Tuple[int, ...] = (64, 128, 256)
    cache_engine: str = "exact"
    forms: str = "paper"
    code_version: str = field(default_factory=default_code_version)

    def __post_init__(self):
        counts = tuple(sorted({int(c) for c in self.train_counts}))
        object.__setattr__(self, "train_counts", counts)
        if len(counts) < 2:
            raise ServeError(
                f"need at least 2 training counts, got {list(counts)}",
                stage="serve",
            )
        if self.cache_engine not in ENGINE_NAMES:
            raise ServeError(
                f"unknown cache engine {self.cache_engine!r}; "
                f"known engines: {ENGINE_NAMES}",
                stage="serve",
            )
        if self.forms not in FORM_SETS:
            raise ServeError(
                f"unknown form set {self.forms!r}; "
                f"known sets: {sorted(FORM_SETS)}",
                stage="serve",
            )

    def digest(self) -> str:
        """Content digest over the canonical identity tokens."""
        h = hashlib.sha256()
        for token in (
            f"v{SCHEMA_VERSION}",
            self.app,
            self.machine,
            ",".join(str(c) for c in self.train_counts),
            self.cache_engine,
            self.forms,
            self.code_version,
        ):
            h.update(token.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def describe(self) -> str:
        return (
            f"{self.app}@{self.machine} train={list(self.train_counts)} "
            f"engine={self.cache_engine} forms={self.forms} "
            f"code={self.code_version[:12]}"
        )

    def to_dict(self) -> dict:
        return dict(asdict(self), train_counts=list(self.train_counts))

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelSpec":
        return cls(**doc)


@dataclass
class FittedModel:
    """One registry entry: spec + fit report + synthesis template, plus
    the machine profile runtime queries replay against."""

    spec: ModelSpec
    report: BatchedFitReport
    template: TraceFile
    #: the profile of ``spec.machine``, built by :func:`fit_model`
    profile: MachineProfile

    @property
    def digest(self) -> str:
        return self.spec.digest()

    def predict(self, targets: Sequence[int]) -> SweepPrediction:
        """Vectorized multi-target sweep (one array pass, no re-fit)."""
        return self.report.predict_many(targets)

    def synthesize(
        self, target: int, *, prediction: Optional[SweepPrediction] = None
    ) -> TraceFile:
        """The synthetic trace of one target (for runtime replay)."""
        if prediction is None or target not in prediction.targets:
            prediction = self.predict([target])
        return synthesize_from_prediction(self.template, prediction, target)


def fit_model(spec: ModelSpec, *, config=None, report=None) -> FittedModel:
    """Train the model a spec describes, through the pipeline's own path.

    Collection runs with the spec's cache engine (exact LRU replay or
    analytical reuse-distance), fitting through
    :func:`repro.core.extrapolate.fit_traces` — the identical code the offline sweep API uses, so served answers are
    bit-identical to what a fresh ``extrapolate_trace_many`` would
    produce.  The machine profile is built here, once per model: like
    ``run_table1``, a fit with a signature cache keeps it in the
    machine-profile store beside the cache, so a profile a ``table1``
    run already built is loaded, not probed.
    """
    # local imports: keep registry loading cheap and cycle-free
    from repro.apps.registry import get_app
    from repro.instrument.collector import CollectorConfig
    from repro.pipeline.collect import CollectionSettings
    from repro.pipeline.experiment import Table1Config, collect_training_traces

    if config is None:
        config = Table1Config(
            machine=spec.machine,
            collection=CollectionSettings(
                collector=CollectorConfig(engine=spec.cache_engine)
            ),
        )
    app = get_app(spec.app)
    with span("serve.fit", app=spec.app, counts=len(spec.train_counts)):
        traces = collect_training_traces(
            app, list(spec.train_counts), config, report=report
        )
        fit_report, template = fit_traces(traces, forms=FORM_SETS[spec.forms])
        machine = get_machine(
            spec.machine,
            root=None if config.cache is None else config.cache.root / STORE_DIR,
        )
    return FittedModel(
        spec=spec, report=fit_report, template=template, profile=machine
    )


@dataclass
class RegistryStats(CounterSet):
    """Tiered hit/miss tallies, mirrored into ``serve.registry.*``."""

    PREFIX = "serve.registry"

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    fits: int = 0
    quarantined: int = 0
    gc_evictions: int = 0
    lock_waits: int = 0
    lock_takeovers: int = 0

    def bump(self, name: str, n: int = 1) -> None:
        super().bump(name, n)
        if name in ("mem_hits", "disk_hits", "misses"):
            REGISTRY.set_gauge("serve.registry.hit_rate", self.hit_rate())

    def hit_rate(self) -> float:
        """Fraction of lookups served by either tier (mem or disk)."""
        lookups = self.mem_hits + self.disk_hits + self.misses
        if not lookups:
            return 0.0
        return (self.mem_hits + self.disk_hits) / lookups


def _encode(model: FittedModel) -> Tuple[Dict[str, bytes], dict]:
    fit, template = io.BytesIO(), io.BytesIO()
    model.report.save_npz(fit, forms=model.spec.forms)
    model.template.save_npz(template)
    files = {
        "fit.npz": fit.getvalue(),
        "template.npz": template.getvalue(),
        # the machine-profile store's codec: one profile format
        MACHINE_FILE: pickle.dumps(model.profile),
    }
    return files, {"schema_version": SCHEMA_VERSION, "spec": model.spec.to_dict()}


def _decode(digest: str, meta: dict, files: Dict[str, bytes]) -> FittedModel:
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise ServeError(
            f"unsupported model schema version {meta.get('schema_version')!r}",
            stage="serve",
        )
    spec = ModelSpec.from_dict(meta["spec"])
    if spec.digest() != digest:
        raise ServeError(
            f"entry {digest[:12]} holds model {spec.digest()[:12]}",
            stage="serve",
        )
    return FittedModel(
        spec=spec,
        report=BatchedFitReport.load_npz(io.BytesIO(files["fit.npz"])),
        template=TraceFile.load_npz(io.BytesIO(files["template.npz"])),
        profile=pickle.loads(files[MACHINE_FILE]),
    )


class ModelRegistry:
    """Two-tier store of fitted models: in-memory LRU over a disk tree.

    ``root=None`` keeps everything in memory (tests, embedded use); with
    a root directory, :meth:`put` persists and :meth:`get` falls back to
    disk on a memory miss.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        *,
        mem_entries: int = 8,
        budget_mb: Optional[float] = None,
        lock_stale_s: float = 30.0,
        lock_poll_s: float = 0.05,
    ):
        if mem_entries < 1:
            raise ServeError(
                f"mem_entries must be >= 1, got {mem_entries}", stage="serve"
            )
        if budget_mb is not None and not budget_mb > 0:
            raise ServeError(
                f"registry budget must be positive, got {budget_mb}",
                stage="serve",
            )
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.mem_entries = mem_entries
        self.budget_mb = budget_mb
        self.stats = RegistryStats()
        self.store = Store(
            self.root,
            shard=True,
            mem_entries=mem_entries,
            stats=self.stats,
            counters={event: event for event in EVENTS},
            faults={"put": "corrupt-model-entry"},
            fault_files=FAULT_FILES,
            lock_stale_s=lock_stale_s,
            lock_poll_s=lock_poll_s,
        )

    @staticmethod
    def _digest_of(key: Union[str, ModelSpec]) -> str:
        return key.digest() if isinstance(key, ModelSpec) else str(key)

    def __contains__(self, key: Union[str, ModelSpec]) -> bool:
        return self._digest_of(key) in self.store

    def __len__(self) -> int:
        return len(self.digests())

    def digests(self) -> List[str]:
        """Every digest the registry can answer for (both tiers)."""
        return sorted(set(self.store.memory_keys()) | set(self.store.keys()))

    def get(self, key: Union[str, ModelSpec]) -> Optional[FittedModel]:
        digest = self._digest_of(key)
        model = self.store.get_dir(
            digest, lambda meta, files: _decode(digest, meta, files)
        )
        if model is not None:
            self._gauge_memory()
        return model

    def put(self, model: FittedModel) -> str:
        digest = model.digest
        self.store.put_dir(digest, model, _encode)
        self._gauge_memory()
        if self.root is not None and self.budget_mb is not None:
            left = self.store.gc(self.budget_mb * 1024 * 1024, protect=digest)
            REGISTRY.set_gauge("serve.registry.disk_mb", left / (1024 * 1024))
        return digest

    def _gauge_memory(self) -> None:
        REGISTRY.set_gauge(
            "serve.registry.mem_entries", float(len(self.store.memory_keys()))
        )

    def get_or_fit(
        self, spec: ModelSpec, *, config=None, report=None
    ) -> FittedModel:
        """Answer from either tier, fitting (and persisting) on a miss.

        With a disk root, the fit runs under the digest's store lock: a
        second process asked for the same model waits for the first and
        loads its entry instead of re-fitting.
        """
        model = self.get(spec)
        if model is not None:
            return model
        if self.root is None:
            return self._fit_and_put(spec, config=config, report=report)
        digest = spec.digest()
        try:
            model = self.store.acquire(digest, lambda: self.get(spec))
        except TimeoutError as exc:
            raise ServeError(str(exc), stage="serve") from exc
        if model is not None:
            return model
        try:
            return self._fit_and_put(spec, config=config, report=report)
        finally:
            self.store.release(digest)

    def _fit_and_put(self, spec, *, config=None, report=None) -> FittedModel:
        model = fit_model(spec, config=config, report=report)
        self.stats.bump("fits")
        self.put(model)
        return model

    def clear_memory(self) -> None:
        """Drop the memory tier (disk survives) — cold-start testing."""
        self.store.clear_memory()

    def quarantined_digests(self) -> List[str]:
        """Digests with at least one quarantined copy (diagnostics)."""
        return sorted(self.store.quarantined())

    def disk_usage_bytes(self) -> int:
        """Total bytes of live (non-quarantined) disk entries."""
        return self.store.disk_bytes() if self.root is not None else 0
