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
- **Self-verifying node entries.**  Each node's output is one
  directory entry of a :class:`~repro.util.store.Store` (DESIGN.md
  §7.13), ``artifacts/<key>/``: the artifact as its one member (rules
  read their parents by path) and the self-digesting ``meta.json``
  naming the node and rule, whose digest of the member is the node's
  output digest.  An entry commits in one atomic rename, so after a
  kill at *any* instant it is either complete and verifies or absent:
  re-running recomputes exactly the nodes that did not commit,
  bit-identically to an uninterrupted run.  Reuse re-verifies the
  entry; a damaged one is quarantined and recomputed.
- **Fault isolation.**  A failing node is recorded, not raised: its
  downstream cone is marked *poisoned* (one
  :class:`~repro.guard.violations.GuardViolation` per poisoned node)
  and every independent branch keeps executing.  Its error is kept
  under ``failures/<key>`` for ``repro dag status`` until it commits.
- **Concurrency.**  The store's per-key lockfiles (stale-mtime
  takeover, bounded wait) let two ``repro dag run`` processes share one
  cache directory: exactly one executes each node; the loser polls
  and adopts the winner's entry.

Ready nodes execute in topological waves through
:func:`~repro.exec.resilience.run_tasks_resilient`, so per-node
timeouts, retries, pool restarts, and the :mod:`repro.exec.faults`
plans (including the DAG-specific ``node-crash``,
``corrupt-node-artifact``, and ``stale-lock`` kinds, keyed
``dag:<node-name>``) all apply per node.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
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
from repro.machine.systems import STORE_DIR, get_machine, get_spec
from repro.obs.log import get_logger
from repro.obs.manifest import default_code_version
from repro.obs.metrics import REGISTRY, CounterSet
from repro.obs.trace import span
from repro.trace.tracefile import TraceFile
from repro.util.errors import DagError
from repro.util.store import Store
from repro.util.tables import Table

log = get_logger("pipeline.dag")

#: bump when node keying or artifact formats change incompatibly —
#: every key changes, so old stores are simply ignored, never misread
#: (2: entries are directories whose manifest holds the output digest)
DAG_SCHEMA_VERSION = 2

ARTIFACTS_DIR = "artifacts"
FAILURES_DIR = "failures"


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

    @property
    def artifact(self) -> str:
        """The member of the node's store entry holding its output."""
        return f"artifact{self.ext}"


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
# rules — pure functions from (spec, parent artifacts) to one payload;
# ``root`` is the DAG root, whose machine-profile store convolve reads.
# Module-level and argument-complete so they run in pool workers.
# ---------------------------------------------------------------------------

#: a rule's parents: node name -> artifact path
Parents = Dict[str, Path]


def _target_of(name: str) -> int:
    return int(name.rsplit(":", 1)[1])


def _rule_collect(name: str, spec: SweepSpec, parents: Parents, root: Path):
    # local import: keep DAG importable without dragging the app zoo in
    from repro.apps.registry import get_app
    from repro.pipeline.collect import CollectionSettings, collect_signature

    count = _target_of(name)
    app = get_app(spec.app)
    settings = CollectionSettings(
        ranks="slowest", collector=spec.collector(), workers=0
    )
    signature = collect_signature(
        app, count, get_spec(spec.machine).hierarchy, settings
    )
    return signature.slowest_trace()


def _rule_fit(name: str, spec: SweepSpec, parents: Parents, root: Path):
    traces = [
        TraceFile.load_npz(parents[p])
        for p in sorted(parents, key=_target_of)
    ]
    report, _template = fit_traces(traces, forms=FORM_SETS[spec.forms])
    return report


def _rule_extrapolate(name: str, spec: SweepSpec, parents: Parents, root: Path):
    target = _target_of(name)
    report = BatchedFitReport.load_npz(parents["fit"])
    template_name = next(p for p in parents if p.startswith("collect:"))
    template = TraceFile.load_npz(parents[template_name])
    prediction = report.predict_many(
        [target], rate_trust_factor=spec.rate_trust_factor
    )
    return synthesize_from_prediction(template, prediction, target)


def _rule_convolve(name: str, spec: SweepSpec, parents: Parents, root: Path):
    from repro.psins.convolution import ComputationModel

    trace = TraceFile.load_npz(next(iter(parents.values())))
    machine = get_machine(
        spec.machine, accesses_per_probe=spec.accesses_per_probe,
        root=root / STORE_DIR,
    )
    model = ComputationModel(trace, machine)
    return {
        "n_ranks": int(trace.n_ranks),
        "iteration_time_s": {
            str(bid): float(model.iteration_time_s(bid))
            for bid in sorted(trace.blocks)
        },
    }


def _rule_predict(name: str, spec: SweepSpec, parents: Parents, root: Path):
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


def _rule_measure(name: str, spec: SweepSpec, parents: Parents, root: Path):
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


def _rule_report_table1(name: str, spec: SweepSpec, parents: Parents, root: Path):
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


def _rule_report_whatif(name: str, spec: SweepSpec, parents: Parents, root: Path):
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

    Entries are directories ``artifacts/<node key>/`` holding the
    node's output as member :attr:`Node.artifact` (other rules read it
    by path) and a manifest naming the node and rule; locks are per
    node key.
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


def _failure_store(root: Union[str, Path]) -> Store:
    """Each failed node's last error, ``failures/<node key>``: a framed
    JSON ``{node, rule, error}`` that only :func:`dag_status` reads."""
    return Store(Path(root) / FAILURES_DIR)


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _encode(payload, spec: SweepSpec) -> bytes:
    """A rule's payload as the bytes of its artifact file."""
    if isinstance(payload, TraceFile):
        buf = io.BytesIO()
        payload.save_npz(buf)
    elif isinstance(payload, BatchedFitReport):
        buf = io.BytesIO()
        payload.save_npz(buf, forms=spec.forms)
    else:
        return _json_bytes(payload)
    return buf.getvalue()


def _execute_node(
    name: str,
    rule: str,
    spec: SweepSpec,
    parent_paths: Dict[str, str],
    root: str,
    key: str,
    artifact: str,
) -> str:
    """Run one node, atomically commit its entry, return its digest.

    Module-level so it pickles into pool workers.  Generic fault kinds
    (``raise``/``hang``/``crash``/``node-crash``) were already applied
    by the executor under the key ``dag:<name>``.
    """
    with span("dag.node", node=name, rule=rule):
        payload = _RULES[rule](
            name, spec, {k: Path(v) for k, v in parent_paths.items()},
            Path(root),
        )
        data = _encode(payload, spec)
        artifact_store(root).put_dir(
            key, data, lambda data: ({artifact: data}, {"node": name, "rule": rule})
        )
    return hashlib.sha256(data).hexdigest()


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
    content key from the parents' output digests, reuse its committed
    entry when it verifies (``clean``), quarantine-and-redo when it does
    not, and otherwise execute the rule under a node lockfile through
    the resilient executor.  Each node commits its entry the moment it
    finishes, so a SIGKILL at any instant loses at most in-flight
    nodes; ``fresh=True`` removes every committed entry first and
    recomputes everything.
    """
    dag = build_dag(spec)
    root = Path(root)
    if fresh:
        for sub in (ARTIFACTS_DIR, FAILURES_DIR):
            shutil.rmtree(root / sub, ignore_errors=True)
    report = report if report is not None else RunReport()
    stats = DagStats()
    REGISTRY.set_gauge("dag.nodes_total", float(len(dag.nodes)))
    store = artifact_store(
        root, stats, lock_stale_s=lock_stale_s, lock_poll_s=lock_poll_s,
        lock_wait_s=lock_wait_s,
    )
    statuses: Dict[str, str] = {}
    digests: Dict[str, str] = {}
    artifacts: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    violations: List[GuardViolation] = []
    bad: Dict[str, str] = {}  # name -> root-cause description
    pending: Dict[str, Node] = dict(dag.nodes)
    failures = _failure_store(root)
    with span("dag.run", app=spec.app, nodes=len(dag.nodes)):
        while pending:
            _run_wave(
                dag, store, failures, pending, statuses, digests,
                artifacts, errors, bad, violations, stats, report,
                workers=workers, resilience=resilience,
            )
    log.info("dag run complete: %s", stats)
    return DagRunResult(
        spec=spec, root=root, statuses=statuses, digests=digests,
        artifacts=artifacts, errors=errors, stats=stats, report=report,
        violations=violations,
    )


def _run_wave(
    dag: Dag,
    store: Store,
    failures: Store,
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

    def committed(node: Node, key: str) -> Optional[str]:
        """The output digest in the node's entry, when it verifies (the
        store quarantines a damaged one)."""
        return store.get_dir(
            key, lambda meta, files: meta["files"][node.artifact],
            fault_key=f"dag:{node.name}",
        )

    def settle(node: Node, key: str, digest: str, status: str) -> None:
        digests[node.name] = digest
        artifacts[node.name] = str(store.path(key) / node.artifact)
        statuses[node.name] = status
        stats.bump(status)
        del pending[node.name]

    # split the wave: reuse committed entries that verify, run the rest
    to_run: List[Tuple[Node, str]] = []
    for node in ready:
        key = node_key(node, spec, digests)
        digest = committed(node, key)
        if digest is not None:
            settle(node, key, digest, "clean")
        else:
            to_run.append((node, key))

    # node locks: exactly one process executes each node; losers poll
    # and adopt the winner's entry
    runnable: List[Tuple[Node, str]] = []
    for node, key in to_run:
        try:
            digest = store.acquire(
                key, lambda node=node, key=key: committed(node, key),
                fault_key=f"dag:{node.name}",
            )
        except TimeoutError:
            raise DagError(
                f"timed out after {store.lock_wait_s:.0f}s waiting for the "
                f"node lock of {node.name}",
                stage="dag", task_key=key,
            ) from None
        if digest is not None:
            settle(node, key, digest, "clean")
        else:
            runnable.append((node, key))
    if not runnable:
        return

    tasks = [
        (
            node.name, node.rule, spec,
            {p: artifacts[p] for p in node.parents}, str(store.root), key,
            node.artifact,
        )
        for node, key in runnable
    ]
    keys = [f"dag:{node.name}" for node, _key in runnable]
    log.info(
        "wave: executing %d node(s): %s",
        len(runnable), ", ".join(n.name for n, _k in runnable),
    )
    crashes_before = report.crashes
    results, _ = run_tasks_resilient(
        _execute_node, tasks,
        keys=keys, workers=workers, config=resilience, report=report,
        stage="dag", collect_errors=True,
    )
    if report.crashes > crashes_before:
        stats.bump("node_crashes", report.crashes - crashes_before)
    for (node, key), value in zip(runnable, results):
        store.release(key)
        if isinstance(value, Exception) or value is None:
            del pending[node.name]
            message = str(value) if value is not None else "no result"
            failures.put(
                key, {"node": node.name, "rule": node.rule, "error": message},
                _json_bytes,
            )
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
            failures.path(key).unlink(missing_ok=True)  # it committed
            settle(node, key, value, "executed")


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
    the digests in verified entries, without taking locks, quarantining
    or writing anything.  A node below a non-clean ancestor is
    ``blocked`` — its key cannot be resolved until the ancestor
    recomputes.
    """
    dag = build_dag(spec)
    store = artifact_store(root)
    failures = _failure_store(root)
    built: Optional[set] = None  # node names of all committed entries
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
        meta = store.peek(key)
        if meta is not None:
            state, reason = "clean", "artifact matches committed digest"
            digests[node.name] = meta["files"][node.artifact]
        elif key in store:
            state, reason = "stale", "artifact corrupt (will quarantine)"
        elif key in failures:
            record = json.loads(failures.peek(key) or "{}")
            state = "failed"
            reason = f"failed last run: {record.get('error', 'unknown error')}"
        else:
            if built is None:
                built = {(store.peek(k) or {}).get("node") for k in store.keys()}
            state, reason = "stale", (
                "inputs or config changed" if node.name in built
                else "never built"
            )
        out.append(NodeStatus(
            name=node.name, rule=node.rule, state=state, reason=reason,
            key=key,
        ))
    return out
