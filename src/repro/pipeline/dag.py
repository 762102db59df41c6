"""Crash-consistent, content-addressed pipeline DAG.

The paper's full workflow — collect training traces, fit canonical
forms, extrapolate to target counts, convolve with the machine profile,
predict runtimes, measure ground truth, render Tables I/II/III — is a
directed acyclic graph of pure *rules*.  This module makes that graph
explicit and gives it make-like incremental semantics with a crash
model:

- **Content addressing.**  Every node is keyed by a SHA-256 digest over
  its rule, its configuration tokens, the code version, and the *output
  digests of its parents* (:func:`node_key`).  Changing one target core
  count re-keys only the extrapolate cone for that target; changing the
  probe budget re-keys everything.  Parent digests give early cutoff: a
  re-collected trace that hashes identically leaves the downstream
  cone clean.
- **Durable node state.**  Node completions are appended to a
  :class:`~repro.pipeline.journal.RunJournal` state store
  (``state.jsonl``) with flush+fsync per record; a torn tail from a
  SIGKILL mid-append is skipped on recovery, so the store is readable
  after a kill at *any* instant and a committed node is never lost.
- **Atomic, verified artifacts.**  Node outputs live in a
  :class:`~repro.util.store.Store` (DESIGN.md §7.13): an artifact
  commits atomically, so it either exists complete or not at all —
  re-running after a crash recomputes exactly the nodes whose
  artifacts did not commit, and the outputs are bit-identical to an
  uninterrupted run.  Reuse re-verifies the digest the state store
  recorded; a damaged artifact is quarantined and recomputed.
- **Fault isolation.**  A failing node is recorded, not raised: its
  downstream cone is marked *poisoned* (one
  :class:`~repro.guard.violations.GuardViolation` per poisoned node)
  and every independent branch keeps executing.
- **Concurrency.**  The store's per-key lockfiles (stale-mtime
  takeover, bounded wait) let two ``repro dag run`` processes share one
  cache directory: exactly one executes each node; the loser polls,
  refreshes the state store, and adopts the winner's artifact.

Ready nodes execute in topological waves through
:func:`~repro.exec.resilience.run_tasks_resilient`, so per-node
timeouts, retries, pool restarts, and the :mod:`repro.exec.faults`
plans (including the DAG-specific ``node-crash``,
``corrupt-node-artifact``, and ``stale-lock`` kinds, keyed
``dag:<node-name>``) all apply per node.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.cache.engine import ENGINE_NAMES
from repro.core.canonical import FORM_SETS
from repro.core.extrapolate import fit_traces, synthesize_from_prediction
from repro.core.fitting import BatchedFitReport
from repro.exec.resilience import (
    ResilienceConfig,
    RunReport,
    run_tasks_resilient,
)
from repro.guard.violations import GuardViolation
from repro.instrument.collector import CollectorConfig
from repro.machine.systems import get_machine, get_spec
from repro.obs.log import get_logger
from repro.obs.manifest import default_code_version
from repro.obs.metrics import REGISTRY, CounterSet
from repro.obs.trace import span
from repro.pipeline.journal import RunJournal
from repro.trace.tracefile import TraceFile
from repro.util.errors import DagError
from repro.util.store import Store
from repro.util.tables import Table

log = get_logger("pipeline.dag")

#: bump when node keying or artifact formats change incompatibly —
#: every key changes, so old stores are simply ignored, never misread
DAG_SCHEMA_VERSION = 1

STATE_FILE = "state.jsonl"
ARTIFACTS_DIR = "artifacts"


@dataclass(frozen=True)
class SweepSpec:
    """Everything a full sweep depends on — the DAG's identity surface.

    ``train_counts`` and ``targets`` are canonicalized (sorted,
    deduplicated) so keys are insensitive to argument order.  Fields
    that affect only part of the graph enter only those nodes' keys:
    ``targets`` and ``rate_trust_factor`` key the extrapolation cone,
    ``train_counts`` reach the fit through its parent digests — so
    adding a target, or re-ordering counts, never dirties the collected
    traces.
    """

    app: str
    machine: str = "blue_waters_p1"
    train_counts: Tuple[int, ...] = (64, 128, 256)
    targets: Tuple[int, ...] = (1024,)
    cache_engine: str = "exact"
    forms: str = "paper"
    code_version: str = field(default_factory=default_code_version)
    #: include the Table I validation arm (collected-trace prediction +
    #: ground-truth measurement) for the first target
    table1: bool = True
    rate_trust_factor: float = 2.0
    accesses_per_probe: int = 100_000
    sample_accesses: int = 200_000
    max_sample_accesses: int = 3_000_000

    def __post_init__(self):
        counts = tuple(sorted({int(c) for c in self.train_counts}))
        targets = tuple(sorted({int(t) for t in self.targets}))
        object.__setattr__(self, "train_counts", counts)
        object.__setattr__(self, "targets", targets)
        if len(counts) < 2:
            raise DagError(
                f"need at least 2 training counts, got {list(counts)}",
                stage="dag",
            )
        if not targets:
            raise DagError("need at least 1 target core count", stage="dag")
        if self.cache_engine not in ENGINE_NAMES:
            raise DagError(
                f"unknown cache engine {self.cache_engine!r}; "
                f"known engines: {ENGINE_NAMES}",
                stage="dag",
            )
        if self.forms not in FORM_SETS:
            raise DagError(
                f"unknown form set {self.forms!r}; "
                f"known sets: {sorted(FORM_SETS)}",
                stage="dag",
            )

    def collector(self) -> CollectorConfig:
        return CollectorConfig(
            sample_accesses=self.sample_accesses,
            max_sample_accesses=self.max_sample_accesses,
            engine=self.cache_engine,
        )

    def identity_tokens(self) -> Tuple[str, ...]:
        """Spec tokens every node's key includes.

        Deliberately *excludes* ``train_counts`` (they reach the fit
        node through its parent set), ``targets`` (per-node tokens),
        and ``rate_trust_factor`` (an extrapolate-node token).
        """
        return (
            self.app,
            self.machine,
            self.cache_engine,
            self.forms,
            self.code_version,
            f"probe={self.accesses_per_probe}",
            f"sample={self.sample_accesses}",
            f"maxsample={self.max_sample_accesses}",
        )

    def to_dict(self) -> dict:
        return dict(
            asdict(self),
            train_counts=list(self.train_counts),
            targets=list(self.targets),
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        return cls(**doc)


@dataclass(frozen=True)
class Node:
    """One rule instance in the graph."""

    name: str
    rule: str
    parents: Tuple[str, ...] = ()
    tokens: Tuple[str, ...] = ()  #: per-node identity beyond the spec
    ext: str = ".json"  #: artifact file extension


@dataclass(frozen=True)
class Dag:
    """A spec's node graph; ``nodes`` iterates in topological order."""

    spec: SweepSpec
    nodes: Mapping[str, Node]

    def topo(self) -> List[Node]:
        return list(self.nodes.values())

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "nodes": {
                n.name: {"rule": n.rule, "parents": list(n.parents)}
                for n in self.nodes.values()
            },
        }


def build_dag(spec: SweepSpec) -> Dag:
    """The full-sweep graph for one spec.

    Construction order is a topological order (every parent is added
    before its children), which the executors rely on.
    """
    nodes: Dict[str, Node] = {}

    def add(name, rule, parents=(), tokens=(), ext=".json"):
        for p in parents:
            if p not in nodes:
                raise DagError(
                    f"node {name} references unknown parent {p}", stage="dag"
                )
        nodes[name] = Node(
            name=name, rule=rule, parents=tuple(parents),
            tokens=tuple(str(t) for t in tokens), ext=ext,
        )

    t0 = spec.targets[0]
    counts = set(spec.train_counts)
    if spec.table1:
        counts.add(t0)
    for c in sorted(counts):
        add(f"collect:{c}", "collect", tokens=(c,), ext=".npz")
    add(
        "fit", "fit",
        parents=[f"collect:{c}" for c in spec.train_counts], ext=".npz",
    )
    t_min = spec.train_counts[0]
    for t in spec.targets:
        add(
            f"extrapolate:{t}", "extrapolate",
            parents=["fit", f"collect:{t_min}"],
            tokens=(t, f"rtf={spec.rate_trust_factor!r}"), ext=".npz",
        )
        add(f"convolve:extrap:{t}", "convolve", parents=[f"extrapolate:{t}"])
        add(f"predict:extrap:{t}", "predict", parents=[f"convolve:extrap:{t}"])
    if spec.table1:
        add(f"convolve:coll:{t0}", "convolve", parents=[f"collect:{t0}"])
        add(f"predict:coll:{t0}", "predict", parents=[f"convolve:coll:{t0}"])
        add(f"measure:{t0}", "measure", tokens=(t0,))
        add(
            "report:table1", "report-table1",
            parents=[
                f"predict:extrap:{t0}", f"predict:coll:{t0}", f"measure:{t0}"
            ],
        )
    add(
        "report:whatif", "report-whatif",
        parents=[f"predict:extrap:{t}" for t in spec.targets],
    )
    return Dag(spec=spec, nodes=nodes)


def node_key(
    node: Node, spec: SweepSpec, parent_digests: Mapping[str, str]
) -> str:
    """Content digest naming one node's output.

    Covers the schema version, the rule, the spec's shared identity
    tokens, the node's own tokens, and each parent's *output digest* —
    so identity flows transitively through the graph, and an upstream
    recompute that reproduces identical bytes cuts off re-keying
    (early cutoff).
    """
    h = hashlib.sha256()
    for token in (
        f"dag-v{DAG_SCHEMA_VERSION}",
        node.rule,
        node.name,
        *spec.identity_tokens(),
        *node.tokens,
    ):
        h.update(token.encode("utf-8"))
        h.update(b"\x00")
    for pname in node.parents:
        h.update(f"{pname}={parent_digests[pname]}".encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# rules — pure functions from (spec, parent artifacts) to one payload.
# Module-level and argument-complete so they run in pool workers.
# ---------------------------------------------------------------------------


def _target_of(name: str) -> int:
    return int(name.rsplit(":", 1)[1])


def _rule_collect(name: str, spec: SweepSpec, parents: Dict[str, Path]):
    # local import: keep DAG importable without dragging the app zoo in
    from repro.apps.registry import get_app
    from repro.pipeline.collect import CollectionSettings, collect_signature

    count = _target_of(name)
    app = get_app(spec.app)
    machine = get_machine(
        spec.machine, accesses_per_probe=spec.accesses_per_probe
    )
    settings = CollectionSettings(
        ranks="slowest", collector=spec.collector(), workers=0
    )
    signature = collect_signature(app, count, machine.hierarchy, settings)
    return signature.slowest_trace()


def _rule_fit(name: str, spec: SweepSpec, parents: Dict[str, Path]):
    traces = [
        TraceFile.load_npz(parents[p])
        for p in sorted(parents, key=_target_of)
    ]
    report, _template = fit_traces(
        traces, forms=FORM_SETS[spec.forms], engine="batched"
    )
    return report


def _rule_extrapolate(name: str, spec: SweepSpec, parents: Dict[str, Path]):
    target = _target_of(name)
    report = BatchedFitReport.load_npz(parents["fit"])
    template_name = next(p for p in parents if p.startswith("collect:"))
    template = TraceFile.load_npz(parents[template_name])
    prediction = report.predict_many(
        [target], rate_trust_factor=spec.rate_trust_factor
    )
    return synthesize_from_prediction(template, prediction, target)


def _rule_convolve(name: str, spec: SweepSpec, parents: Dict[str, Path]):
    from repro.psins.convolution import ComputationModel

    trace = TraceFile.load_npz(next(iter(parents.values())))
    machine = get_machine(
        spec.machine, accesses_per_probe=spec.accesses_per_probe
    )
    model = ComputationModel(trace, machine)
    return {
        "n_ranks": int(trace.n_ranks),
        "iteration_time_s": {
            str(bid): float(model.iteration_time_s(bid))
            for bid in sorted(trace.blocks)
        },
    }


def _rule_predict(name: str, spec: SweepSpec, parents: Dict[str, Path]):
    from repro.apps.registry import get_app
    from repro.psins.replay import UniformTimer, replay_job

    target = _target_of(name)
    doc = json.loads(next(iter(parents.values())).read_text())
    times = doc["iteration_time_s"]
    app = get_app(spec.app)
    job = app.build_job(target)
    timer = UniformTimer(lambda bid: times[str(bid)])
    replay = replay_job(job, timer, get_spec(spec.machine).network)
    return {
        "app": spec.app,
        "core_count": target,
        "runtime_s": float(replay.runtime_s),
    }


def _rule_measure(name: str, spec: SweepSpec, parents: Dict[str, Path]):
    from repro.apps.registry import get_app
    from repro.pipeline.predict import measure_runtime

    target = _target_of(name)
    app = get_app(spec.app)
    result = measure_runtime(app, target, get_spec(spec.machine))
    return {
        "app": spec.app,
        "core_count": target,
        "runtime_s": float(result.runtime_s),
    }


def _rule_report_table1(name: str, spec: SweepSpec, parents: Dict[str, Path]):
    from repro.pipeline.experiment import Table1Row
    from repro.pipeline.report import table1_report

    t0 = spec.targets[0]
    extrap = json.loads(parents[f"predict:extrap:{t0}"].read_text())
    coll = json.loads(parents[f"predict:coll:{t0}"].read_text())
    measured = json.loads(parents[f"measure:{t0}"].read_text())
    rows = [
        Table1Row(
            app=spec.app, core_count=t0, trace_type=trace_type,
            predicted_runtime_s=doc["runtime_s"],
            measured_runtime_s=measured["runtime_s"],
        )
        for trace_type, doc in (("Extrap.", extrap), ("Coll.", coll))
    ]
    return {
        "app": spec.app,
        "core_count": t0,
        "measured_runtime_s": measured["runtime_s"],
        "rows": [
            {
                "trace_type": r.trace_type,
                "predicted_runtime_s": r.predicted_runtime_s,
                "pct_error": r.pct_error,
            }
            for r in rows
        ],
        "text": table1_report(rows),
    }


def _rule_report_whatif(name: str, spec: SweepSpec, parents: Dict[str, Path]):
    predictions = {}
    for path in parents.values():
        doc = json.loads(path.read_text())
        predictions[str(doc["core_count"])] = doc["runtime_s"]
    table = Table(
        columns=["Application", "Core Count", "Predicted Runtime (s)"],
        title="What-if sweep: predicted runtimes from extrapolated traces",
        float_fmt=".1f",
    )
    for t in spec.targets:
        table.add_row(spec.app, t, predictions[str(t)])
    return {"app": spec.app, "predictions": predictions, "text": table.render()}


_RULES = {
    "collect": _rule_collect,
    "fit": _rule_fit,
    "extrapolate": _rule_extrapolate,
    "convolve": _rule_convolve,
    "predict": _rule_predict,
    "measure": _rule_measure,
    "report-table1": _rule_report_table1,
    "report-whatif": _rule_report_whatif,
}


def artifact_store(
    root: Union[str, Path],
    stats: Optional["DagStats"] = None,
    *,
    lock_stale_s: float = 30.0,
    lock_poll_s: float = 0.05,
    lock_wait_s: float = 600.0,
) -> Store:
    """The node-artifact store under a DAG root.

    Entries are ``artifacts/<node key><ext>`` files committed bare (other
    rules read them by path), verified against the digest the state
    store recorded; locks are per node key.
    """
    return Store(
        root,
        entries=ARTIFACTS_DIR,
        stats=stats,
        counters={e: e for e in ("quarantined", "lock_waits", "lock_takeovers")},
        faults={"get": "corrupt-node-artifact", "lock": "stale-lock"},
        lock_stale_s=lock_stale_s,
        lock_poll_s=lock_poll_s,
        lock_wait_s=lock_wait_s,
    )


def _entry(node: "Node", key: str) -> str:
    """The artifact store key of ``node`` under content key ``key``."""
    return f"{key}{node.ext}"


def _write(payload, spec: SweepSpec, path: Path) -> None:
    if isinstance(payload, TraceFile):
        payload.save_npz(path)
    elif isinstance(payload, BatchedFitReport):
        payload.save_npz(path, forms=spec.forms)
    else:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _execute_node(
    name: str,
    rule: str,
    spec: SweepSpec,
    parent_paths: Dict[str, str],
    root: str,
    entry: str,
) -> dict:
    """Run one node and atomically commit its artifact.

    Module-level so it pickles into pool workers.  Generic fault kinds
    (``raise``/``hang``/``crash``/``node-crash``) were already applied
    by the executor under the key ``dag:<name>``.
    """
    with span("dag.node", node=name, rule=rule):
        payload = _RULES[rule](
            name, spec, {k: Path(v) for k, v in parent_paths.items()}
        )
        sha256 = artifact_store(root).put_file(
            entry, lambda tmp: _write(payload, spec, tmp)
        )
    return {"sha256": sha256}


# ---------------------------------------------------------------------------
# run engine
# ---------------------------------------------------------------------------


@dataclass
class DagStats(CounterSet):
    """Counters for one DAG run, mirrored to ``dag.*`` registry metrics."""

    PREFIX = "dag"

    executed: int = 0  #: nodes this run computed and committed
    clean: int = 0  #: nodes reused (valid artifact already present)
    failed: int = 0  #: nodes whose rule raised (isolated, not fatal)
    poisoned: int = 0  #: nodes skipped because an ancestor failed
    quarantined: int = 0  #: corrupt artifacts moved aside, then redone
    lock_waits: int = 0  #: polls spent waiting on another process's lock
    lock_takeovers: int = 0  #: stale locks removed (crashed holder)
    node_crashes: int = 0  #: worker deaths observed while executing nodes


@dataclass
class DagRunResult:
    """Outcome of one :func:`run_dag` invocation."""

    spec: SweepSpec
    root: Path
    statuses: Dict[str, str]  #: node -> executed|clean|failed|poisoned
    digests: Dict[str, str]  #: node -> artifact content digest
    artifacts: Dict[str, str]  #: node -> absolute artifact path
    errors: Dict[str, str]  #: failed node -> error message
    stats: DagStats
    report: RunReport
    violations: List[GuardViolation]

    @property
    def ok(self) -> bool:
        return not self.errors and "poisoned" not in self.statuses.values()

    def artifact_json(self, name: str) -> dict:
        """Load one JSON node artifact (reports, predictions)."""
        return json.loads(Path(self.artifacts[name]).read_text())

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "statuses": dict(self.statuses),
            "digests": dict(self.digests),
            "errors": dict(self.errors),
            "stats": self.stats.to_dict(),
        }


def _committed(journal: RunJournal, key: str) -> Optional[str]:
    """The artifact digest the state store committed for ``key``."""
    meta = journal.meta(key) or {}
    return meta.get("sha256") if meta.get("status") == "done" else None


def run_dag(
    spec: SweepSpec,
    root: Union[str, Path],
    *,
    fresh: bool = False,
    workers: Optional[int] = 0,
    resilience: Optional[ResilienceConfig] = None,
    report: Optional[RunReport] = None,
    lock_stale_s: float = 30.0,
    lock_poll_s: float = 0.05,
    lock_wait_s: float = 600.0,
) -> DagRunResult:
    """Execute a spec's graph incrementally under ``root``.

    Walks the graph in topological waves.  Per node: resolve its
    content key from the parents' output digests, reuse the committed
    artifact when its recorded digest still matches (``clean``),
    quarantine-and-redo when it does not, and otherwise execute the
    rule under a node lockfile through the resilient executor.  Node
    completions append durably to ``state.jsonl`` as they land, so a
    SIGKILL at any instant loses at most in-flight nodes; ``fresh=True``
    truncates the store and recomputes everything.
    """
    dag = build_dag(spec)
    root = Path(root)
    (root / ARTIFACTS_DIR).mkdir(parents=True, exist_ok=True)
    report = report if report is not None else RunReport()
    stats = DagStats()
    REGISTRY.set_gauge("dag.nodes_total", float(len(dag.nodes)))
    store = artifact_store(
        root, stats, lock_stale_s=lock_stale_s, lock_poll_s=lock_poll_s,
        lock_wait_s=lock_wait_s,
    )
    journal = RunJournal(root / STATE_FILE, resume=not fresh)
    statuses: Dict[str, str] = {}
    digests: Dict[str, str] = {}
    artifacts: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    violations: List[GuardViolation] = []
    bad: Dict[str, str] = {}  # name -> root-cause description
    pending: Dict[str, Node] = dict(dag.nodes)
    try:
        with span("dag.run", app=spec.app, nodes=len(dag.nodes)):
            while pending:
                _run_wave(
                    dag, store, journal, pending, statuses, digests,
                    artifacts, errors, bad, violations, stats, report,
                    workers=workers, resilience=resilience,
                )
    finally:
        journal.close()
    log.info("dag run complete: %s", stats)
    return DagRunResult(
        spec=spec, root=root, statuses=statuses, digests=digests,
        artifacts=artifacts, errors=errors, stats=stats, report=report,
        violations=violations,
    )


def _run_wave(
    dag: Dag,
    store: Store,
    journal: RunJournal,
    pending: Dict[str, Node],
    statuses: Dict[str, str],
    digests: Dict[str, str],
    artifacts: Dict[str, str],
    errors: Dict[str, str],
    bad: Dict[str, str],
    violations: List[GuardViolation],
    stats: DagStats,
    report: RunReport,
    *,
    workers: Optional[int],
    resilience: Optional[ResilienceConfig],
) -> None:
    spec = dag.spec
    # poison-cone propagation first: a node below any failed/poisoned
    # ancestor is skipped with a violation, never executed
    poisoned = [
        n for n in pending.values() if any(p in bad for p in n.parents)
    ]
    for node in poisoned:
        cause = next(p for p in node.parents if p in bad)
        statuses[node.name] = "poisoned"
        bad[node.name] = f"poisoned via {cause}"
        stats.bump("poisoned")
        violations.append(
            GuardViolation(
                artifact=node.name,
                boundary="dag",
                check="upstream-failed",
                message=f"upstream {cause}: {bad[cause]}",
            )
        )
        del pending[node.name]
    ready = [
        n for n in pending.values()
        if all(p in digests for p in n.parents)
    ]
    if not ready:
        if pending:  # pragma: no cover - build_dag forbids cycles
            raise DagError(
                f"no runnable nodes among {sorted(pending)}", stage="dag"
            )
        return

    def adopt_clean(node: Node, key: str) -> None:
        digests[node.name] = _committed(journal, key)
        artifacts[node.name] = str(store.path(_entry(node, key)))
        statuses[node.name] = "clean"
        stats.bump("clean")
        del pending[node.name]

    # split the wave: reuse committed-and-intact artifacts (the store
    # quarantines damaged ones), run the rest
    to_run: List[Tuple[Node, str]] = []
    for node in ready:
        key = node_key(node, spec, digests)
        if store.verify(
            _entry(node, key), _committed(journal, key),
            fault_key=f"dag:{node.name}",
        ):
            adopt_clean(node, key)
        else:
            to_run.append((node, key))

    # node locks: exactly one process executes each node; losers poll,
    # refresh the shared state store, and adopt the winner's artifact
    runnable: List[Tuple[Node, str]] = []
    for node, key in to_run:

        def committed_elsewhere(node=node, key=key):
            journal.refresh()
            return store.intact(_entry(node, key), _committed(journal, key)) or None

        try:
            adopted = store.acquire(
                key, committed_elsewhere, fault_key=f"dag:{node.name}"
            )
        except TimeoutError:
            raise DagError(
                f"timed out after {store.lock_wait_s:.0f}s waiting for the "
                f"node lock of {node.name}",
                stage="dag", task_key=key,
            ) from None
        if adopted:
            adopt_clean(node, key)
        else:
            runnable.append((node, key))
    if not runnable:
        return

    tasks = [
        (
            node.name, node.rule, spec,
            {p: artifacts[p] for p in node.parents}, str(store.root),
            _entry(node, key),
        )
        for node, key in runnable
    ]
    keys = [f"dag:{node.name}" for node, _key in runnable]

    def on_result(i: int, value) -> None:
        # durable per-node commit, written the moment the node settles:
        # a SIGKILL after this line never re-executes the node
        node, key = runnable[i]
        if isinstance(value, Exception):
            journal.amend(
                key, node=node.name, rule=node.rule, status="failed",
                error=str(value),
            )
        else:
            journal.amend(
                key, node=node.name, rule=node.rule, status="done",
                sha256=value["sha256"],
            )

    log.info(
        "wave: executing %d node(s): %s",
        len(runnable), ", ".join(n.name for n, _k in runnable),
    )
    crashes_before = report.crashes
    results, _ = run_tasks_resilient(
        _execute_node, tasks,
        keys=keys, workers=workers, config=resilience, report=report,
        on_result=on_result, stage="dag", collect_errors=True,
    )
    if report.crashes > crashes_before:
        stats.bump("node_crashes", report.crashes - crashes_before)
    for (node, key), value in zip(runnable, results):
        store.release(key)
        del pending[node.name]
        if isinstance(value, Exception) or value is None:
            message = str(value) if value is not None else "no result"
            statuses[node.name] = "failed"
            errors[node.name] = message
            bad[node.name] = message
            stats.bump("failed")
            violations.append(
                GuardViolation(
                    artifact=node.name,
                    boundary="dag",
                    check="node-failed",
                    message=message,
                )
            )
        else:
            digests[node.name] = value["sha256"]
            artifacts[node.name] = str(store.path(_entry(node, key)))
            statuses[node.name] = "executed"
            stats.bump("executed")


# ---------------------------------------------------------------------------
# status
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeStatus:
    """One node's dirtiness verdict, with the reason when explained."""

    name: str
    rule: str
    state: str  #: clean | stale | failed | blocked
    reason: str
    key: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rule": self.rule,
            "state": self.state,
            "reason": self.reason,
            "key": self.key,
        }


def dag_status(spec: SweepSpec, root: Union[str, Path]) -> List[NodeStatus]:
    """What would ``repro dag run`` do right now, and why.

    Pure read: walks the graph in topological order resolving keys from
    committed digests, without taking locks or writing anything.  A
    node below a non-clean ancestor is ``blocked`` — its key cannot be
    resolved until the ancestor recomputes.
    """
    dag = build_dag(spec)
    root = Path(root)
    store = artifact_store(root)
    metas: Dict[str, Optional[dict]] = {}
    state_path = root / STATE_FILE
    if state_path.exists():
        with RunJournal(state_path, resume=True) as journal:
            metas = journal.metas()
    built_names = {
        meta.get("node") for meta in metas.values() if meta
    }
    digests: Dict[str, str] = {}
    out: List[NodeStatus] = []
    for node in dag.topo():
        unresolved = [p for p in node.parents if p not in digests]
        if unresolved:
            out.append(NodeStatus(
                name=node.name, rule=node.rule, state="blocked",
                reason=f"upstream {unresolved[0]} is not clean",
            ))
            continue
        key = node_key(node, spec, digests)
        entry = _entry(node, key)
        meta = metas.get(key)
        if meta and meta.get("status") == "done":
            if not store.path(entry).exists():
                state, reason = "stale", "artifact missing"
            elif not store.intact(entry, meta.get("sha256")):
                state, reason = "stale", "artifact corrupt (will quarantine)"
            else:
                state, reason = "clean", "artifact matches committed digest"
                digests[node.name] = meta["sha256"]
        elif meta:
            state = "failed"
            reason = f"failed last run: {meta.get('error', 'unknown error')}"
        elif node.name in built_names:
            state, reason = "stale", "inputs or config changed"
        else:
            state, reason = "stale", "never built"
        out.append(NodeStatus(
            name=node.name, rule=node.rule, state=state, reason=reason,
            key=key,
        ))
    return out
