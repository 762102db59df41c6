"""Command-line interface: ``python -m repro <command>``.

Exposes the pipeline's workflows for shell-driven use:

=================  ====================================================
``list``           known apps and machines
``collect``        trace an app at one core count -> signature directory
``extrapolate``    small-count traces -> synthesized large-count trace
``predict``        trace + machine -> predicted runtime
``measure``        ground-truth runtime of an app on a machine
``table1``         the full Table I protocol for one app
``dag run``        the full sweep as a crash-consistent incremental DAG
``dag status``     what ``dag run`` would recompute right now, and why
``serve``          answer what-if queries from a fitted-model registry
=================  ====================================================

Examples::

    python -m repro collect --app uh3d --ranks 1024 --out sig1024
    python -m repro extrapolate --trace sig1024/rank*.npz --target 8192 \
        --out uh3d-8192.npz
    python -m repro extrapolate --trace sig1024/rank*.npz \
        --target 8192,16384,32768 --out uh3d-{target}.npz
    python -m repro predict --app uh3d --ranks 8192 \
        --trace uh3d-8192.npz
    python -m repro table1 --app uh3d --train 1024,2048,4096 --target 8192
    python -m repro dag run --app uh3d --train 1024,2048,4096 \
        --targets 8192,16384 --dag-root ./dagroot
    python -m repro dag status --app uh3d --train 1024,2048,4096 \
        --targets 8192,16384 --dag-root ./dagroot --explain
    python -m repro serve --app uh3d --train 1024,2048,4096 \
        --load-gen 2000
    echo '{"id": 1, "target": 8192}' | \
        python -m repro serve --app uh3d --train 1024,2048,4096

Robustness: ``--task-timeout``/``--max-retries`` switch collection to
the fault-tolerant executor, and any recovery events are summarized
after the results.  An interrupted ``collect``/``table1`` resumes by
re-running the same command with the same ``--cache-dir``: finished
units are signature-cache hits.  Invalid inputs (unknown app or machine,
malformed count lists, unwritable output paths) exit with status 2 and
a one-line message — never a traceback.

Observability: every data command takes ``--log-level``/``--log-json``
(structured diagnostics on stderr; also via ``$REPRO_LOG``),
``--trace-out`` (Chrome-trace span timeline for chrome://tracing or
Perfetto), ``--metrics-out`` (counters and timer histograms as JSON),
and ``--manifest-out`` (a run manifest digesting every output artifact).
``--quiet`` silences everything except results and the artifacts
explicitly asked for.  Only result tables go to stdout; all diagnostics
go to stderr through the logger.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.apps.registry import APP_BUILDERS, get_app
from repro.cache import ENGINE_NAMES, configure_profile_cache
from repro.core.canonical import EXTENDED_FORMS, PAPER_FORMS
from repro.exec.resilience import ResilienceConfig, RunReport
from repro.exec.sigcache import SignatureCache
from repro.guard.config import GuardConfig, POLICIES
from repro.guard.degrade import DegradationReport
from repro.guard.engine import (
    check_prediction_inputs,
    check_signature,
    guarded_extrapolate_many,
)
from repro.guard.violations import GuardError, GuardViolation
from repro.instrument.collector import CollectorConfig
from repro.machine.systems import MACHINE_BUILDERS, get_machine, get_spec
from repro.obs import log as obs_log
from repro.obs import manifest as obs_manifest
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY
from repro.pipeline.collect import CollectionSettings, collect_signatures
from repro.pipeline.dag import SweepSpec, dag_status, run_dag
from repro.pipeline.experiment import Table1Config, run_table1
from repro.pipeline.predict import measure_runtime, predict_runtime
from repro.pipeline.report import table1_report
from repro.trace.tracefile import TraceFile
from repro.util.errors import ReproError, UsageError
from repro.util.tables import Table
from repro.util.validation import ValidationError

log = obs_log.get_logger("cli")


# ----------------------------------------------------------------------
# up-front input validation (exit 2, one line, no traceback)


def _resolve_app(name: str):
    try:
        return get_app(name)
    except KeyError:
        known = ", ".join(sorted(APP_BUILDERS))
        raise UsageError(
            f"unknown application {name!r}; known apps: {known} "
            "(see `repro list`)"
        )


def _check_machine(name: str) -> str:
    if name not in MACHINE_BUILDERS:
        known = ", ".join(sorted(MACHINE_BUILDERS))
        raise UsageError(
            f"unknown machine {name!r}; known machines: {known} "
            "(see `repro list`)"
        )
    return name


def _nearest_existing_dir(path: Path) -> Path:
    path = path.absolute()
    for candidate in [path, *path.parents]:
        if candidate.exists():
            return candidate
    return Path("/")  # pragma: no cover - "/" always exists


def _check_writable(flag: str, target: str, *, is_dir: bool) -> str:
    """Fail fast when ``target`` cannot possibly be written.

    For files the parent directory must be creatable/writable; for
    directories the nearest existing ancestor must be writable.
    """
    path = Path(target)
    probe = _nearest_existing_dir(path if is_dir else path.parent)
    if not probe.is_dir():
        raise UsageError(
            f"{flag} path {target!r} is not writable "
            f"({str(probe)!r} is a file, not a directory)"
        )
    if not os.access(probe, os.W_OK):
        raise UsageError(
            f"{flag} path {target!r} is not writable "
            f"(no write permission on {str(probe)!r})"
        )
    if not is_dir and path.exists() and path.is_dir():
        raise UsageError(f"{flag} path {target!r} is a directory, not a file")
    return target


def _parse_counts(text: str) -> List[int]:
    try:
        counts = [int(c) for c in text.split(",") if c.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad core-count list {text!r} (expected comma-separated "
            "integers, e.g. 1024,2048,4096)"
        )
    if not counts:
        raise argparse.ArgumentTypeError("empty core-count list")
    if any(c <= 0 for c in counts):
        raise argparse.ArgumentTypeError(
            f"core counts must be positive, got {counts}"
        )
    return counts


def _load_trace(path: str) -> TraceFile:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"trace file {path!r} does not exist")
    if p.suffix == ".jsonl":
        return TraceFile.load_jsonl(p)
    return TraceFile.load_npz(p)


# ----------------------------------------------------------------------
# shared flag groups and their interpretation


def _add_exec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for collection fan-out "
             "(default: one per CPU; 0 = serial)",
    )
    p.add_argument(
        "--cache-engine", choices=ENGINE_NAMES, default="exact",
        help="how block hit rates are obtained: 'exact' replays every "
             "address through the hierarchy simulator; 'reuse' evaluates "
             "analytical reuse-distance profiles (much faster, ~1e-2 "
             "accuracy, cross-checked against exact by a guard gate)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="always collect fresh, bypassing the signature cache",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="signature cache directory (default: $REPRO_SIGNATURE_CACHE "
             "or ~/.cache/repro/signatures)",
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget for a pooled collection task; "
             "a hung task is killed with its pool and re-attempted",
    )
    p.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="additional attempts per task after a crash, timeout, or "
             "transient error (enables the fault-tolerant executor; "
             "default 2 when --task-timeout is given)",
    )


def _build_cache(args: argparse.Namespace) -> Optional[SignatureCache]:
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        _check_writable("--cache-dir", args.cache_dir, is_dir=True)
    return SignatureCache(args.cache_dir)


def _build_collector(
    args: argparse.Namespace, cache: Optional[SignatureCache]
) -> CollectorConfig:
    """Collector knobs from flags.  With the analytical engine and a
    signature cache, reuse profiles persist next to the signatures so
    later geometries (and later runs) re-evaluate instead of re-profile."""
    engine = getattr(args, "cache_engine", "exact")
    if engine == "reuse" and cache is not None:
        configure_profile_cache(Path(cache.root) / "profiles")
    return CollectorConfig(engine=engine)


def _build_resilience(args: argparse.Namespace) -> Optional[ResilienceConfig]:
    if args.task_timeout is None and args.max_retries is None:
        return None
    if args.task_timeout is not None and args.task_timeout <= 0:
        raise UsageError(
            f"--task-timeout must be positive, got {args.task_timeout}"
        )
    if args.max_retries is not None and args.max_retries < 0:
        raise UsageError(
            f"--max-retries must be >= 0, got {args.max_retries}"
        )
    kwargs = {"task_timeout_s": args.task_timeout}
    if args.max_retries is not None:
        kwargs["max_retries"] = args.max_retries
    return ResilienceConfig(**kwargs)


def _add_guard_flags(
    p: argparse.ArgumentParser, *, trust_help: str, trust_default=0.2
) -> None:
    g = p.add_argument_group("guardrails")
    g.add_argument(
        "--guard", choices=POLICIES, default="degrade",
        help="stage-boundary guardrails: 'strict' refuses on the first "
             "violation with an element-addressed message, 'degrade' "
             "(default) repairs what it can (hold nearest-collected "
             "values, substitute the largest collected trace) and "
             "refuses only as a last resort, 'off' disables all checks",
    )
    g.add_argument(
        "--trust-threshold", type=float, default=trust_default,
        metavar="FRAC", help=trust_help,
    )
    g.add_argument(
        "--degradation-out", default=None, metavar="FILE",
        help="write the degradation report (violations, gate flags, "
             "repairs, refusals) here as JSON",
    )


def _build_guard(args: argparse.Namespace) -> Optional[GuardConfig]:
    """Interpret the guard flags; ``None`` when the policy is off.

    Threshold validation runs through :mod:`repro.util.validation`, so a
    bad ``--trust-threshold`` exits 2 with one line like every other
    invalid input.
    """
    if getattr(args, "degradation_out", None):
        _check_writable("--degradation-out", args.degradation_out, is_dir=False)
    policy = getattr(args, "guard", "off")
    if policy == "off":
        return None
    threshold = getattr(args, "trust_threshold", None)
    if threshold is None:
        return GuardConfig(policy=policy)
    return GuardConfig(policy=policy, trust_threshold=threshold)


def _new_degradation(guard: Optional[GuardConfig]) -> DegradationReport:
    if guard is None:
        return DegradationReport(policy="off")
    return DegradationReport.for_config(guard)


def _write_degradation(
    args: argparse.Namespace, degradation: DegradationReport
) -> None:
    path = getattr(args, "degradation_out", None)
    if not path:
        return
    Path(path).write_text(
        json.dumps(degradation.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    log.info("wrote degradation report: %s", path)


def _log_guard(degradation: DegradationReport) -> None:
    if not degradation.clean:
        log.warning("%s", degradation.summary())


QUALITY_SIDECAR_SUFFIX = ".quality.json"


def _write_quality_sidecar(
    out_path: str, degradation: DegradationReport
) -> Path:
    """Write the extrapolation-quality sidecar next to a synthesized
    trace.  Trust data lives here, not in the trace itself, so the trace
    bytes stay bit-identical with guards on or off."""
    doc = {
        "schema_version": 1,
        "policy": degradation.policy,
        "clean": degradation.clean,
        "trust_threshold": degradation.trust_threshold,
        "trust_fraction": degradation.trust_fraction,
        "crossval_median_error": degradation.crossval_median_error,
        "flagged_elements": degradation.n_crossval_flagged,
        "degraded_elements": [
            d.to_dict() for d in degradation.degraded_elements
        ],
        "degraded_traces": [d.to_dict() for d in degradation.degraded_traces],
    }
    path = Path(str(out_path) + QUALITY_SIDECAR_SUFFIX)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _load_quality_sidecar(trace_path: str) -> Optional[dict]:
    path = Path(str(trace_path) + QUALITY_SIDECAR_SUFFIX)
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):  # unreadable sidecar = absent
        return None


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("observability")
    g.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default=None,
        help="diagnostic verbosity on stderr (default: warning, "
             "or $REPRO_LOG)",
    )
    g.add_argument(
        "--log-json", action="store_true",
        help="emit diagnostics as JSON lines instead of console text",
    )
    g.add_argument(
        "--quiet", action="store_true",
        help="results only: silence every diagnostic below error",
    )
    g.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome-trace span timeline here "
             "(open in chrome://tracing or Perfetto)",
    )
    g.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write counters and timer histograms here as JSON",
    )
    g.add_argument(
        "--manifest-out", default=None, metavar="FILE",
        help="write a run manifest (config, git SHA, output digests) here",
    )


def _check_obs_paths(args: argparse.Namespace) -> None:
    for flag, attr in (
        ("--trace-out", "trace_out"),
        ("--metrics-out", "metrics_out"),
        ("--manifest-out", "manifest_out"),
    ):
        value = getattr(args, attr, None)
        if value:
            _check_writable(flag, value, is_dir=False)


def _manifest_config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "fn"}


def _write_manifest(
    args: argparse.Namespace,
    *,
    command: str,
    outputs: dict,
    app: Optional[str] = None,
    machine: Optional[str] = None,
    cache: Optional[SignatureCache] = None,
    report: Optional[RunReport] = None,
    guard: Optional[DegradationReport] = None,
    serve=None,
    dag=None,
    path: Optional[str] = None,
) -> None:
    """Write the run manifest when a path was requested (or defaulted)."""
    path = path or getattr(args, "manifest_out", None)
    if not path:
        return
    profile_cache = None
    if getattr(args, "cache_engine", None) == "reuse":
        from repro.cache.reuse import profile_cache as current_profile_cache

        profile_cache = current_profile_cache()
    doc = obs_manifest.build_manifest(
        command=command,
        config=_manifest_config(args),
        outputs=outputs,
        app=app,
        machine=machine,
        cache=cache,
        report=report,
        guard=guard,
        tracer=obs_trace.current() if obs_trace.is_enabled() else None,
        profile_cache=profile_cache,
        serve=serve,
        dag=dag,
    )
    obs_manifest.write_manifest(path, doc)
    log.info("wrote run manifest: %s", path)


def _log_cache_stats(cache: Optional[SignatureCache]) -> None:
    if cache is not None:
        log.info("signature cache [%s]: %s", cache.root, cache.stats)


def _log_run_health(report: Optional[RunReport]) -> None:
    if report is not None and report.events:
        log.warning("resilience: %s", report)
        for event in report.events:
            log.warning("  - %s", event)


# ----------------------------------------------------------------------
# commands


def cmd_list(args: argparse.Namespace) -> int:
    print("applications:")
    for name in sorted(APP_BUILDERS):
        print(f"  {name}")
    print("machines:")
    for name in sorted(MACHINE_BUILDERS):
        print(f"  {name}")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    app = _resolve_app(args.app)
    machine = get_machine(_check_machine(args.machine))
    _check_writable("--out", args.out, is_dir=True)
    guard = _build_guard(args)
    cache = _build_cache(args)
    report = RunReport()
    degradation = _new_degradation(guard)
    settings = CollectionSettings(
        collector=_build_collector(args, cache),
        workers=args.workers,
        resilience=_build_resilience(args),
    )
    try:
        signature = collect_signatures(
            app, [args.ranks], machine.hierarchy, settings,
            cache=cache, report=report,
        )[0]
        check_signature(signature, config=guard, report=degradation)
    finally:
        _write_degradation(args, degradation)
    signature.save_dir(args.out)
    _log_cache_stats(cache)
    _log_run_health(report)
    _log_guard(degradation)
    outputs = {
        p.name: p
        for p in sorted(Path(args.out).iterdir())
        if p.is_file() and p.name != obs_manifest.MANIFEST_NAME
    }
    _write_manifest(
        args,
        command="collect",
        outputs=outputs,
        app=args.app,
        machine=args.machine,
        cache=cache,
        report=report,
        guard=degradation,
        path=getattr(args, "manifest_out", None)
        or str(Path(args.out) / obs_manifest.MANIFEST_NAME),
    )
    trace = signature.slowest_trace()
    print(
        f"collected {args.app} @ {args.ranks} ranks against {args.machine}: "
        f"slowest rank {trace.rank}, {trace.n_blocks} blocks -> {args.out}"
    )
    return 0


def _out_path(template: str, target: int, n_targets: int) -> str:
    """Resolve --out for one target of a sweep.

    With multiple targets the template must contain a ``{target}``
    placeholder so each synthesized trace gets its own file.
    """
    if "{target}" in template:
        return template.replace("{target}", str(target))
    if n_targets > 1:
        raise SystemExit(
            "--out must contain a {target} placeholder when --target "
            "lists multiple core counts"
        )
    return template


def cmd_extrapolate(args: argparse.Namespace) -> int:
    _check_writable("--out", args.out, is_dir=False)
    guard = _build_guard(args)
    traces = [_load_trace(p) for p in args.trace]
    forms = EXTENDED_FORMS if args.extended_forms else PAPER_FORMS
    degradation = _new_degradation(guard)
    try:
        sweep, degradation = guarded_extrapolate_many(
            traces, args.target, forms=forms, engine=args.engine,
            config=guard, report=degradation,
        )
    finally:
        _write_degradation(args, degradation)
    hist = dict(sweep.report.form_histogram())
    train = [t.n_ranks for t in sorted(traces, key=lambda t: t.n_ranks)]
    outputs = {}
    for result in sweep.results:
        out = _out_path(args.out, result.target_n_ranks, len(sweep.targets))
        result.trace.save_npz(out)
        outputs[f"trace_{result.target_n_ranks}"] = Path(out)
        if guard is not None:
            sidecar = _write_quality_sidecar(out, degradation)
            outputs[f"quality_{result.target_n_ranks}"] = sidecar
        print(
            f"extrapolated {traces[0].app} {train} -> "
            f"{result.target_n_ranks} ranks ({hist}) -> {out}"
        )
    if guard is not None and degradation.trust_fraction is not None:
        print(
            f"guard: cross-validation trust fraction "
            f"{degradation.trust_fraction:.3f} at threshold "
            f"{degradation.trust_threshold:g} "
            f"({degradation.n_crossval_flagged} elements flagged)"
        )
    _log_guard(degradation)
    _write_manifest(
        args, command="extrapolate", outputs=outputs, app=traces[0].app,
        guard=degradation,
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    app = _resolve_app(args.app)
    machine = get_machine(_check_machine(args.machine))
    guard = _build_guard(args)
    trace = _load_trace(args.trace)
    degradation = _new_degradation(guard)
    quality = _load_quality_sidecar(args.trace) if guard is not None else None
    try:
        check_prediction_inputs(
            trace, machine, config=guard, report=degradation
        )
        if quality is not None and quality.get("trust_fraction") is not None:
            trust = float(quality["trust_fraction"])
            floor = getattr(args, "trust_threshold", None)
            if floor is not None and trust < floor:
                message = (
                    f"extrapolation trust fraction {trust:.3f} below the "
                    f"--trust-threshold floor {floor:g} "
                    f"(from {args.trace}{QUALITY_SIDECAR_SUFFIX})"
                )
                if guard is not None and guard.strict:
                    degradation.refuse(message)
                    raise GuardError([
                        GuardViolation(
                            artifact="extrapolated-trace",
                            boundary="trace->predict",
                            check="trust-floor",
                            message=message,
                            severity="error",
                        )
                    ])
                log.warning("guard: %s", message)
    finally:
        _write_degradation(args, degradation)
    prediction = predict_runtime(app, args.ranks, trace, machine)
    kind = "extrapolated" if trace.extrapolated else "collected"
    line = (
        f"{args.app} @ {args.ranks} ranks on {args.machine} "
        f"({kind} trace): predicted runtime {prediction.runtime_s:.6f} s"
    )
    print(line)
    if quality is not None and quality.get("trust_fraction") is not None:
        print(
            f"guard: extrapolation trust fraction "
            f"{float(quality['trust_fraction']):.3f} "
            f"({int(quality.get('flagged_elements', 0))} elements flagged "
            f"in training cross-validation)"
        )
    _log_guard(degradation)
    _write_manifest(
        args,
        command="predict",
        outputs={"prediction.txt": (line + "\n").encode("utf-8")},
        app=args.app,
        machine=args.machine,
        guard=degradation,
    )
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    app = _resolve_app(args.app)
    result = measure_runtime(app, args.ranks, get_spec(_check_machine(args.machine)))
    line = (
        f"{args.app} @ {args.ranks} ranks on {args.machine}: "
        f"measured runtime {result.runtime_s:.6f} s"
    )
    print(line)
    _write_manifest(
        args,
        command="measure",
        outputs={"measurement.txt": (line + "\n").encode("utf-8")},
        app=args.app,
        machine=args.machine,
    )
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    app = _resolve_app(args.app)
    _check_machine(args.machine)
    guard = _build_guard(args)
    cache = _build_cache(args)
    config = Table1Config(
        machine=args.machine,
        collection=CollectionSettings(
            collector=_build_collector(args, cache),
            workers=args.workers,
            resilience=_build_resilience(args),
        ),
        cache=cache,
        guard=guard,
    )
    degradation = _new_degradation(guard)
    try:
        result = run_table1(
            app, args.train, args.target, config, degradation=degradation
        )
    finally:
        _write_degradation(args, degradation)
    rendered = (
        table1_report(result.rows)
        + f"\nmeasured runtime: {result.measured_runtime_s:.6f} s\n"
    )
    print(rendered, end="")
    # only a run the guards touched gets a stdout line — a clean run's
    # stdout stays byte-identical to the rendered table artifact
    if not result.degradation.clean:
        print(f"guard: {result.degradation.summary()}")
    _log_cache_stats(cache)
    _log_run_health(result.run_report)
    _log_guard(result.degradation)
    _write_manifest(
        args,
        command="table1",
        outputs={"table1.txt": rendered.encode("utf-8")},
        app=args.app,
        machine=args.machine,
        cache=cache,
        report=result.run_report,
        guard=result.degradation,
    )
    return 0


def _dag_root(args: argparse.Namespace) -> Path:
    root = (
        args.dag_root
        or os.environ.get("REPRO_DAG_ROOT")
        or os.path.expanduser("~/.cache/repro/dag")
    )
    _check_writable("--dag-root", str(root), is_dir=True)
    return Path(root)


def _build_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    _resolve_app(args.app)
    _check_machine(args.machine)
    return SweepSpec(
        app=args.app,
        machine=args.machine,
        train_counts=tuple(args.train),
        targets=tuple(args.targets),
        cache_engine=args.cache_engine,
        forms="extended" if args.extended_forms else "paper",
        code_version=args.code_version or obs_manifest.default_code_version(),
        table1=not args.no_table1,
        rate_trust_factor=args.rate_trust_factor,
        accesses_per_probe=args.accesses_per_probe,
        sample_accesses=args.sample_accesses,
        max_sample_accesses=args.max_sample_accesses,
    )


def cmd_dag_run(args: argparse.Namespace) -> int:
    if args.fresh and args.resume:
        raise UsageError("--fresh and --resume are mutually exclusive")
    spec = _build_sweep_spec(args)
    root = _dag_root(args)
    report = RunReport()
    result = run_dag(
        spec,
        root,
        fresh=args.fresh,
        workers=args.workers,
        resilience=_build_resilience(args),
        report=report,
        lock_stale_s=args.lock_stale,
        lock_poll_s=args.lock_poll,
        lock_wait_s=args.lock_wait,
    )
    outputs = {}
    rendered = ""
    for node, artifact in (
        ("report:table1", "table1.txt"),
        ("report:whatif", "whatif.txt"),
    ):
        if result.statuses.get(node) in ("executed", "clean"):
            text = result.artifact_json(node)["text"] + "\n"
            rendered += text
            outputs[artifact] = text.encode("utf-8")
    print(rendered, end="")
    log.info("dag [%s]: %s", root, result.stats)
    _log_run_health(report)
    for name, message in sorted(result.errors.items()):
        log.error("dag node failed: %s: %s", name, message)
    for name, status in sorted(result.statuses.items()):
        if status == "poisoned":
            log.warning("dag node poisoned (upstream failure): %s", name)
    _write_manifest(
        args,
        command="dag-run",
        outputs=outputs,
        app=args.app,
        machine=args.machine,
        report=report,
        dag=result.to_dict(),
    )
    return 0 if result.ok else 1


def cmd_dag_status(args: argparse.Namespace) -> int:
    spec = _build_sweep_spec(args)
    root = _dag_root(args)
    statuses = dag_status(spec, root)
    if args.json:
        print(json.dumps([s.to_dict() for s in statuses], indent=2))
    else:
        columns = ["Node", "Rule", "State"]
        if args.explain:
            columns.append("Reason")
        table = Table(
            columns=columns,
            title=f"DAG status: {spec.app}@{spec.machine} [{root}]",
        )
        for s in statuses:
            row = [s.name, s.rule, s.state]
            if args.explain:
                row.append(s.reason)
            table.add_row(*row)
        print(table.render())
    return 0 if all(s.state == "clean" for s in statuses) else 1


def _serve_feature_summary(answer, schema) -> dict:
    """Compact JSONL view of one answer's feature matrix.

    ``features_sha256`` digests the raw float64 bytes, so two serving
    runs (batched or not) can be compared for bit-identity from the
    protocol alone.
    """
    import hashlib

    import numpy as np

    values = np.ascontiguousarray(answer.values, dtype=np.float64)
    hr = values[:, schema.hit_rate_slice]
    return {
        "n_pairs": int(values.shape[0]),
        "features_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        "mean_hit_rates": {
            level: round(float(hr[:, j].mean()), 6) if hr.size else 0.0
            for j, level in enumerate(schema.level_names)
        },
    }


async def _serve_answer_one(engine, req_id, query, schema) -> None:
    """Resolve one JSONL request and print its response line."""
    try:
        answer = await engine.query(query)
    except ReproError as exc:
        doc = {
            "id": req_id,
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
        }
    else:
        doc = {
            "id": req_id,
            "ok": True,
            "target": answer.target,
            "kind": answer.kind,
            "batch_size": answer.batch_size,
            "latency_ms": round(answer.latency_s * 1e3, 3),
            **_serve_feature_summary(answer, schema),
        }
        if answer.runtime_s is not None:
            doc["runtime_s"] = answer.runtime_s
    print(json.dumps(doc), flush=True)


def _install_drain_handlers(loop, callback) -> list:
    """Route SIGTERM/SIGINT into ``callback`` on the loop (best effort).

    Returns the signals actually hooked, so the caller can unhook them.
    Platforms without loop signal support (Windows) fall back to the
    default KeyboardInterrupt behavior.
    """
    import signal

    hooked = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, callback)
        except (NotImplementedError, RuntimeError, ValueError):
            continue
        hooked.append(sig)
    return hooked


async def _serve_stdin_loop(
    engine, schema, *, deadline_ms=None, telemetry=None
) -> bool:
    """JSONL request/response over stdin/stdout until EOF or a signal.

    Returns True when the exit was a graceful drain (SIGTERM/SIGINT):
    admission stops, open batches deadline-flush, in-flight queries are
    answered — never a mid-batch teardown.
    """
    import asyncio
    import threading

    from repro.serve import Query

    await engine.start()
    if telemetry is not None:
        await telemetry.start()
    loop = asyncio.get_running_loop()
    #: reader → loop handoff; None is the drain sentinel, "" is EOF
    lines: asyncio.Queue = asyncio.Queue()

    def _reader() -> None:
        # a dedicated daemon thread, NOT the default executor: a
        # readline blocked on a quiet stdin would otherwise be joined
        # by asyncio.run's shutdown and wedge the drain forever
        while True:
            line = sys.stdin.readline()
            try:
                loop.call_soon_threadsafe(lines.put_nowait, line)
            except RuntimeError:  # loop already closed
                return
            if not line:
                return

    threading.Thread(target=_reader, name="serve-stdin", daemon=True).start()
    hooked = _install_drain_handlers(loop, lambda: lines.put_nowait(None))
    pending: set = set()
    drained = False
    try:
        while True:
            line = await lines.get()
            if line is None:
                drained = True
                break
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            req_id = None
            try:
                req = json.loads(line)
                req_id = req.get("id") if isinstance(req, dict) else None
                deadline = req.get("deadline_ms", deadline_ms)
                query = Query(
                    target=int(req["target"]),
                    tenant=str(req.get("tenant", "default")),
                    kind=str(req.get("kind", "features")),
                    deadline_ms=(
                        float(deadline) if deadline is not None else None
                    ),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    ReproError) as exc:
                print(
                    json.dumps({"id": req_id, "ok": False, "error": str(exc)}),
                    flush=True,
                )
                continue
            task = asyncio.ensure_future(
                _serve_answer_one(engine, req_id, query, schema)
            )
            pending.add(task)
            task.add_done_callback(pending.discard)
    finally:
        for sig in hooked:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
    # yield once so every accepted request has entered the engine —
    # a request read before EOF/drain must not see a closed door
    await asyncio.sleep(0)
    engine.stop_admission()
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    await engine.stop()
    if telemetry is not None:
        # after the drain, so the final record closes the books exactly
        await telemetry.stop()
    return drained


async def _serve_load_main(engine, load_spec, digest, telemetry=None):
    import asyncio

    from repro.serve import run_load, synthetic_queries

    await engine.start()
    if telemetry is not None:
        await telemetry.start()
    loop = asyncio.get_running_loop()
    # a signal mid-load closes admission: the unsubmitted remainder is
    # counted as rejected and the run exits 0 with its partial report
    hooked = _install_drain_handlers(loop, engine.stop_admission)
    queries = synthetic_queries(load_spec, model=digest)
    try:
        return await run_load(engine, queries, spec=load_spec)
    finally:
        for sig in hooked:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        await engine.stop()
        if telemetry is not None:
            await telemetry.stop()


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import (
        LoadSpec,
        ModelRegistry,
        ModelSpec,
        QueryEngine,
        ServeConfig,
    )

    app = _resolve_app(args.app)
    _check_machine(args.machine)
    registry_dir = (
        args.registry
        or os.environ.get("REPRO_MODEL_REGISTRY")
        or str(Path.home() / ".cache" / "repro" / "models")
    )
    _check_writable("--registry", registry_dir, is_dir=True)
    if not args.batch_window > 0:
        raise UsageError(
            f"--batch-window must be positive, got {args.batch_window}"
        )
    if args.batch_max < 1:
        raise UsageError(f"--batch-max must be >= 1, got {args.batch_max}")
    if args.queue_depth < 1:
        raise UsageError(
            f"--queue-depth must be >= 1, got {args.queue_depth}"
        )
    if args.mem_models < 1:
        raise UsageError(
            f"--mem-models must be >= 1, got {args.mem_models}"
        )
    if args.load_gen is not None and args.load_gen < 1:
        raise UsageError(
            f"--load-gen must be >= 1, got {args.load_gen}"
        )
    if args.deadline_ms is not None and not args.deadline_ms > 0:
        raise UsageError(
            f"--deadline-ms must be positive, got {args.deadline_ms}"
        )
    if args.breaker_threshold < 1:
        raise UsageError(
            f"--breaker-threshold must be >= 1, got {args.breaker_threshold}"
        )
    if not args.breaker_open_ms > 0:
        raise UsageError(
            f"--breaker-open-ms must be positive, got {args.breaker_open_ms}"
        )
    if args.registry_budget_mb is not None and not args.registry_budget_mb > 0:
        raise UsageError(
            f"--registry-budget-mb must be positive, "
            f"got {args.registry_budget_mb}"
        )
    if args.runtime_workers < 0:
        raise UsageError(
            f"--runtime-workers must be >= 0, got {args.runtime_workers}"
        )
    if args.load_waves < 1:
        raise UsageError(
            f"--load-waves must be >= 1, got {args.load_waves}"
        )
    if args.load_wave_interval_ms < 0:
        raise UsageError(
            f"--load-wave-interval-ms must be >= 0, "
            f"got {args.load_wave_interval_ms}"
        )
    if args.summary_out:
        _check_writable("--summary-out", args.summary_out, is_dir=False)
    if not args.telemetry_interval > 0:
        raise UsageError(
            f"--telemetry-interval must be positive, "
            f"got {args.telemetry_interval}"
        )
    if args.telemetry_out:
        _check_writable("--telemetry-out", args.telemetry_out, is_dir=False)
    if args.prom_out:
        _check_writable("--prom-out", args.prom_out, is_dir=False)

    cache = _build_cache(args)
    fit_config = Table1Config(
        machine=args.machine,
        forms=EXTENDED_FORMS if args.extended_forms else PAPER_FORMS,
        collection=CollectionSettings(
            collector=_build_collector(args, cache),
            workers=args.workers,
            resilience=_build_resilience(args),
        ),
        cache=cache,
    )
    registry = ModelRegistry(
        registry_dir,
        mem_entries=args.mem_models,
        budget_mb=args.registry_budget_mb,
    )
    spec = ModelSpec(
        app=args.app,
        machine=args.machine,
        train_counts=tuple(args.train),
        cache_engine=args.cache_engine,
        forms="extended" if args.extended_forms else "paper",
    )
    preloaded = spec in registry
    model = registry.get_or_fit(spec, config=fit_config)
    log.info(
        "serving model %s: %s (%s)",
        model.digest[:12],
        spec.describe(),
        "registry hit" if preloaded else "freshly fitted",
    )
    engine = QueryEngine(
        registry,
        default_model=model.digest,
        config=ServeConfig(
            max_batch=args.batch_max,
            window_s=args.batch_window / 1e3,
            queue_depth=args.queue_depth,
            admission=args.admission,
            hardened=not args.no_harden,
            breaker_threshold=args.breaker_threshold,
            breaker_open_s=args.breaker_open_ms / 1e3,
            runtime_workers=args.runtime_workers,
        ),
    )
    telemetry = None
    if args.telemetry_out or args.prom_out:
        from repro.obs.telemetry import TelemetryConfig, TelemetrySampler

        telemetry = TelemetrySampler(
            engine,
            TelemetryConfig(
                interval_s=args.telemetry_interval / 1e3,
                out=args.telemetry_out,
                prom_out=args.prom_out,
            ),
        )

    if args.load_gen is not None:
        if args.load_targets is not None:
            targets = tuple(args.load_targets)
        else:
            base = max(spec.train_counts)
            targets = tuple(base * m for m in (2, 4, 8, 16, 32))
        load_spec = LoadSpec(
            n_queries=args.load_gen,
            targets=targets,
            tenants=tuple(f"tenant{i}" for i in range(args.load_tenants)),
            kind=args.load_kind,
            name=args.load_name,
            deadline_ms=args.deadline_ms,
            waves=args.load_waves,
            wave_interval_s=args.load_wave_interval_ms / 1e3,
        )
        report, _answers = asyncio.run(
            _serve_load_main(engine, load_spec, model.digest, telemetry)
        )
        load_report = report.to_dict()
        r = load_report
        print(
            f"serve-load: n={r['n_queries']} qps={r['qps']} "
            f"p50_ms={round(r['p50_ms'], 3)} p95_ms={round(r['p95_ms'], 3)} "
            f"mean_batch={r['mean_batch']} rejected={r['rejected']} "
            f"errors={r['errors']}"
        )
        drained = engine.draining
    else:
        load_report = None
        drained = asyncio.run(
            _serve_stdin_loop(
                engine,
                model.template.schema,
                deadline_ms=args.deadline_ms,
                telemetry=telemetry,
            )
        )

    summary = engine.summary()
    if load_report is not None:
        summary["load"] = load_report
    if drained:
        r = engine.report
        print(
            f"serve-drain: {engine.stats} "
            f"deadline_expired={r.deadline_expired} {r} worker[{r.worker}]",
            file=sys.stderr,
        )
    log.info("serve summary: %s", summary)
    _log_cache_stats(cache)
    summary_bytes = (
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    if args.summary_out:
        Path(args.summary_out).write_bytes(summary_bytes)
        log.info("wrote serve summary: %s", args.summary_out)
    outputs = {"serve_summary.json": summary_bytes}
    if telemetry is not None:
        log.info(
            "telemetry: %d flight-recorder records%s%s",
            telemetry.records_written,
            f" -> {args.telemetry_out}" if args.telemetry_out else "",
            f", prometheus -> {args.prom_out}" if args.prom_out else "",
        )
        if args.telemetry_out:
            outputs["telemetry.jsonl"] = Path(args.telemetry_out).read_bytes()
        if args.prom_out:
            outputs["metrics.prom"] = Path(args.prom_out).read_bytes()
    _write_manifest(
        args,
        command="serve",
        outputs=outputs,
        app=app.name,
        machine=args.machine,
        cache=cache,
        serve=engine.report,
    )
    return 0


def _stats_doc(records: list, top: int) -> dict:
    """Digest a flight-recorder record list into the `repro stats` doc."""
    from repro.obs.telemetry import StreamingHistogram, sum_counters

    totals = sum_counters(records)
    tenants: dict = {}
    tenant_fields = ("queries", "answered", "failed", "rejected", "waits")
    for name, value in totals.items():
        parts = name.split(".")
        if name.startswith("serve.tenant.") and len(parts) == 4:
            _, _, fld, tenant = parts
            if fld in tenant_fields:
                row = tenants.setdefault(
                    tenant, {f: 0 for f in tenant_fields}
                )
                row[fld] = value
    timeline = []
    lags = []
    for record in records:
        counters = record.get("counters", {})
        interval = record.get("interval_s", 0.0)
        answered = counters.get("serve.answered", 0)
        entry = {
            "seq": record.get("seq", 0),
            "t_s": record.get("t_s", 0.0),
            "interval_s": interval,
            "answered": answered,
            "qps": round(answered / interval, 1) if interval > 0 else 0.0,
            "final": bool(record.get("final")),
        }
        latency = record.get("hists", {}).get("serve.latency_s")
        if latency:
            hist = StreamingHistogram.from_dict(latency)
            entry["p50_ms"] = round(hist.quantile(0.50) * 1e3, 3)
            entry["p95_ms"] = round(hist.quantile(0.95) * 1e3, 3)
        if "loop_lag_s" in record:
            entry["lag_ms"] = round(record["loop_lag_s"] * 1e3, 3)
            lags.append(record["loop_lag_s"])
        timeline.append(entry)
    slow = sorted(
        (
            entry
            for record in records
            for entry in record.get("slow_queries", [])
        ),
        key=lambda e: -e.get("latency_ms", 0.0),
    )[: max(top, 0)]
    transitions = [
        {"seq": record.get("seq", 0), "t_s": record.get("t_s", 0.0),
         "transition": tag}
        for record in records
        for tag in record.get("transitions", [])
    ]
    lookups = sum(
        totals.get(f"serve.registry.{f}", 0)
        for f in ("mem_hits", "disk_hits", "misses")
    )
    hits = sum(
        totals.get(f"serve.registry.{f}", 0)
        for f in ("mem_hits", "disk_hits")
    )
    batches = totals.get("serve.batch.batches", 0)
    doc = {
        "records": len(records),
        "complete": bool(records and records[-1].get("final")),
        "duration_s": records[-1].get("t_s", 0.0) if records else 0.0,
        "totals": {
            "queries": totals.get("serve.queries", 0),
            "answered": totals.get("serve.answered", 0),
            "failed": totals.get("serve.failed", 0),
            "rejected": totals.get("serve.rejected", 0),
            "batches": batches,
            "mean_batch": round(
                totals.get("serve.batch.queries", 0) / batches, 2
            ) if batches else 0.0,
            "registry_hit_rate": round(hits / lookups, 3) if lookups else 0.0,
        },
        "counters": {k: totals[k] for k in sorted(totals)},
        "tenants": {t: tenants[t] for t in sorted(tenants)},
        "timeline": timeline,
        "transitions": transitions,
        "breakers": records[-1].get("breakers", {}) if records else {},
        "slow_queries": slow,
    }
    if lags:
        doc["loop_lag"] = {
            "mean_ms": round(sum(lags) / len(lags) * 1e3, 3),
            "max_ms": round(max(lags) * 1e3, 3),
        }
    return doc


def _render_stats(doc: dict) -> str:
    """Human rendering of one :func:`_stats_doc` (the golden-tested text)."""
    from repro.util.tables import Table

    out = []
    state = "complete" if doc["complete"] else "mid-run (no final record)"
    totals = doc["totals"]
    out.append(
        f"flight recorder: {doc['records']} records over "
        f"{doc['duration_s']:.3f}s ({state})"
    )
    out.append(
        f"totals: queries={totals['queries']} "
        f"answered={totals['answered']} failed={totals['failed']} "
        f"rejected={totals['rejected']} batches={totals['batches']} "
        f"mean_batch={totals['mean_batch']} "
        f"registry_hit_rate={totals['registry_hit_rate']}"
    )
    if "loop_lag" in doc:
        lag = doc["loop_lag"]
        out.append(
            f"loop lag: mean={lag['mean_ms']}ms max={lag['max_ms']}ms"
        )
    timeline = Table(
        ["seq", "t_s", "dt_s", "answered", "qps", "p50_ms", "p95_ms"],
        title="rate timeline",
    )
    for entry in doc["timeline"]:
        timeline.add_row(
            entry["seq"],
            entry["t_s"],
            entry["interval_s"],
            entry["answered"],
            entry["qps"],
            entry.get("p50_ms", "-"),
            entry.get("p95_ms", "-"),
        )
    out.append("")
    out.append(timeline.render())
    if doc["tenants"]:
        tenants = Table(
            ["tenant", "queries", "answered", "failed", "rejected", "waits"],
            title="tenants",
        )
        for tenant, row in doc["tenants"].items():
            tenants.add_row(
                tenant, row["queries"], row["answered"], row["failed"],
                row["rejected"], row["waits"],
            )
        out.append("")
        out.append(tenants.render())
    if doc["transitions"] or doc["breakers"]:
        breakers = Table(
            ["seq", "t_s", "transition"], title="breaker transitions"
        )
        for entry in doc["transitions"]:
            breakers.add_row(
                entry["seq"], entry["t_s"], entry["transition"]
            )
        out.append("")
        out.append(breakers.render())
        if doc["breakers"]:
            states = " ".join(
                f"{model}:{state}"
                for model, state in sorted(doc["breakers"].items())
            )
            out.append(f"breaker states: {states}")
    if doc["slow_queries"]:
        slow = Table(
            ["latency_ms", "tenant", "target", "kind", "model"],
            title="slowest queries",
        )
        for entry in doc["slow_queries"]:
            slow.add_row(
                entry.get("latency_ms", 0.0),
                entry.get("tenant", "-"),
                entry.get("target", 0),
                entry.get("kind", "-"),
                entry.get("model", "-"),
            )
        out.append("")
        out.append(slow.render())
    return "\n".join(out)


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import read_flight_records

    path = Path(args.telemetry)
    if not path.exists():
        raise UsageError(f"--telemetry file not found: {path}")
    if args.top < 0:
        raise UsageError(f"--top must be >= 0, got {args.top}")
    records = read_flight_records(path)
    if not records:
        print(f"stats: no complete records in {path} (empty or torn file)")
        return 0
    doc = _stats_doc(records, args.top)
    if args.as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(_render_stats(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trace extrapolation for large-scale computation behavior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list known apps and machines").set_defaults(
        fn=cmd_list
    )

    p = sub.add_parser("collect", help="trace an app at one core count")
    p.add_argument("--app", required=True, help="application name (see `repro list`)")
    p.add_argument("--ranks", required=True, type=int)
    p.add_argument("--machine", default="blue_waters_p1",
                   help="machine name (see `repro list`)")
    p.add_argument("--out", required=True, help="signature output directory")
    _add_exec_flags(p)
    _add_guard_flags(
        p,
        trust_help="per-element cross-validation error threshold used by "
                   "the fit quality gates downstream (default 0.2)",
    )
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_collect)

    p = sub.add_parser("extrapolate", help="synthesize a large-count trace")
    p.add_argument("--trace", required=True, nargs="+",
                   help="training trace files (.npz or .jsonl)")
    p.add_argument("--target", required=True, type=_parse_counts,
                   help="target core count, or a comma-separated sweep "
                        "(fits once, evaluates every target)")
    p.add_argument("--extended-forms", action="store_true",
                   help="include the paper's SVI extension forms")
    p.add_argument("--engine", choices=("batched", "reference"),
                   default="batched",
                   help="fitting engine: vectorized batched (default) or "
                        "the per-element scalar reference")
    p.add_argument("--out", required=True,
                   help="output .npz path; with a multi-target sweep it "
                        "must contain a {target} placeholder")
    _add_guard_flags(
        p,
        trust_help="per-element relative-error threshold for the "
                   "leave-one-out cross-validation gate; the fraction of "
                   "elements under it is reported as the trust fraction "
                   "(default 0.2)",
    )
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_extrapolate)

    p = sub.add_parser("predict", help="predict runtime from a trace")
    p.add_argument("--app", required=True, help="application name (see `repro list`)")
    p.add_argument("--ranks", required=True, type=int)
    p.add_argument("--machine", default="blue_waters_p1",
                   help="machine name (see `repro list`)")
    p.add_argument("--trace", required=True)
    _add_guard_flags(
        p,
        trust_help="minimum extrapolation trust fraction (from the "
                   "trace's .quality.json sidecar) to accept: below it, "
                   "--guard strict refuses and --guard degrade warns "
                   "(default: no floor)",
        trust_default=None,
    )
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("measure", help="ground-truth runtime of an app")
    p.add_argument("--app", required=True, help="application name (see `repro list`)")
    p.add_argument("--ranks", required=True, type=int)
    p.add_argument("--machine", default="blue_waters_p1",
                   help="machine name (see `repro list`)")
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("table1", help="run the Table I protocol")
    p.add_argument("--app", required=True, help="application name (see `repro list`)")
    p.add_argument("--train", required=True, type=_parse_counts,
                   help="comma-separated training core counts")
    p.add_argument("--target", required=True, type=int)
    p.add_argument("--machine", default="blue_waters_p1",
                   help="machine name (see `repro list`)")
    _add_exec_flags(p)
    _add_guard_flags(
        p,
        trust_help="per-element relative-error threshold for the "
                   "leave-one-out cross-validation gate (default 0.2)",
    )
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser(
        "dag",
        help="crash-consistent incremental pipeline DAG",
        description="The full sweep (collect, fit, extrapolate, "
                    "convolve, predict, measure, report) as a "
                    "content-addressed DAG: every node is keyed by a "
                    "digest over its inputs, config, and code version; "
                    "completions are journaled durably; re-running "
                    "recomputes only dirty nodes, bit-identically.",
    )
    dag_sub = p.add_subparsers(dest="dag_command", required=True)

    def _add_dag_spec_flags(dp: argparse.ArgumentParser) -> None:
        dp.add_argument("--app", required=True,
                        help="application name (see `repro list`)")
        dp.add_argument("--machine", default="blue_waters_p1",
                        help="machine name (see `repro list`)")
        dp.add_argument("--train", required=True, type=_parse_counts,
                        help="comma-separated training core counts")
        dp.add_argument("--targets", required=True, type=_parse_counts,
                        help="comma-separated target core counts")
        dp.add_argument("--cache-engine", choices=ENGINE_NAMES,
                        default="exact",
                        help="hit-rate engine for collection (part of "
                             "node identity)")
        dp.add_argument("--extended-forms", action="store_true",
                        help="include the paper's SVI extension forms")
        dp.add_argument("--no-table1", action="store_true",
                        help="skip the Table I validation arm (collected-"
                             "trace prediction + ground truth at the "
                             "first target)")
        dp.add_argument("--rate-trust-factor", type=float, default=2.0,
                        help="extrapolation rate clamp (default 2.0)")
        dp.add_argument("--accesses-per-probe", type=int, default=100_000,
                        help="machine-profile probe budget")
        dp.add_argument("--sample-accesses", type=int, default=200_000,
                        help="per-block sampled accesses per pass")
        dp.add_argument("--max-sample-accesses", type=int,
                        default=3_000_000,
                        help="total sampled-access cap per trace")
        dp.add_argument("--code-version", default=None, metavar="TOKEN",
                        help="code-version token in node keys (default: "
                             "current git SHA)")
        dp.add_argument("--dag-root", default=None, metavar="DIR",
                        help="artifact/state directory (default: "
                             "$REPRO_DAG_ROOT or ~/.cache/repro/dag)")

    dp = dag_sub.add_parser(
        "run", help="execute the sweep DAG, recomputing only dirty nodes"
    )
    _add_dag_spec_flags(dp)
    dp.add_argument("--fresh", action="store_true",
                    help="ignore all prior node state and recompute "
                         "everything (truncates the state store)")
    dp.add_argument("--resume", action="store_true",
                    help="reuse committed nodes from interrupted or "
                         "previous runs (the default)")
    dp.add_argument("--workers", type=int, default=None, metavar="N",
                    help="process-pool size for node fan-out "
                         "(default: one per CPU; 0 = serial)")
    dp.add_argument("--task-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="per-attempt wall-clock budget per node")
    dp.add_argument("--max-retries", type=int, default=None, metavar="N",
                    help="additional attempts per node after a crash, "
                         "timeout, or transient error")
    dp.add_argument("--lock-stale", type=float, default=30.0,
                    metavar="SECONDS",
                    help="node locks older than this are presumed "
                         "abandoned and taken over (default 30)")
    dp.add_argument("--lock-poll", type=float, default=0.05,
                    metavar="SECONDS",
                    help="poll interval while another process holds a "
                         "node lock (default 0.05)")
    dp.add_argument("--lock-wait", type=float, default=600.0,
                    metavar="SECONDS",
                    help="give up waiting for another process's node "
                         "lock after this long (default 600)")
    _add_obs_flags(dp)
    dp.set_defaults(fn=cmd_dag_run)

    dp = dag_sub.add_parser(
        "status", help="show per-node dirtiness without running anything"
    )
    _add_dag_spec_flags(dp)
    dp.add_argument("--explain", action="store_true",
                    help="add the reason each node is clean or dirty")
    dp.add_argument("--json", action="store_true",
                    help="machine-readable status document on stdout")
    _add_obs_flags(dp)
    dp.set_defaults(fn=cmd_dag_status)

    p = sub.add_parser(
        "serve",
        help="answer what-if queries from a fitted-model registry",
        description="Fit (or load from the registry) one model per "
                    "(app, machine, training counts, cache engine, form "
                    "set, code version), then answer queries: JSONL "
                    "requests on stdin by default, or a replayable "
                    "synthetic load with --load-gen.  Concurrent "
                    "compatible queries are micro-batched into single "
                    "vectorized sweep evaluations.",
    )
    p.add_argument("--app", required=True, help="application name (see `repro list`)")
    p.add_argument("--train", required=True, type=_parse_counts,
                   help="comma-separated training core counts")
    p.add_argument("--machine", default="blue_waters_p1",
                   help="machine name (see `repro list`)")
    p.add_argument("--registry", default=None, metavar="DIR",
                   help="fitted-model registry directory (default: "
                        "$REPRO_MODEL_REGISTRY or ~/.cache/repro/models)")
    p.add_argument("--mem-models", type=int, default=8, metavar="N",
                   help="in-memory model LRU size in front of the "
                        "registry's disk tier (default 8)")
    p.add_argument("--extended-forms", action="store_true",
                   help="fit with the paper's SVI extension forms")
    p.add_argument("--batch-window", type=float, default=2.0, metavar="MS",
                   help="micro-batch coalescing window in milliseconds: "
                        "a batch flushes when full or this old "
                        "(default 2.0)")
    p.add_argument("--batch-max", type=int, default=64, metavar="N",
                   help="maximum queries per micro-batch (default 64)")
    p.add_argument("--queue-depth", type=int, default=256, metavar="N",
                   help="per-tenant admission queue bound (default 256)")
    p.add_argument("--admission", choices=("wait", "reject"),
                   default="wait",
                   help="policy when a tenant's queue is full: 'wait' "
                        "applies backpressure, 'reject' fails the query "
                        "fast (default wait)")
    p.add_argument("--load-gen", type=int, default=None, metavar="N",
                   help="instead of serving stdin, fire N synthetic "
                        "queries (replayable keyed-RNG trace) and print "
                        "qps / latency percentiles")
    p.add_argument("--load-targets", type=_parse_counts, default=None,
                   help="target core counts the synthetic load draws "
                        "from (default: training max x 2,4,8,16,32)")
    p.add_argument("--load-tenants", type=int, default=4, metavar="N",
                   help="synthetic tenants issuing the load (default 4)")
    p.add_argument("--load-kind", choices=("features", "runtime"),
                   default="features",
                   help="query kind the synthetic load issues "
                        "(default features)")
    p.add_argument("--load-name", default="cli", metavar="NAME",
                   help="keyed-RNG stream name: same name, same load "
                        "(default 'cli')")
    p.add_argument("--load-waves", type=int, default=1, metavar="N",
                   help="split the synthetic load into N sequential "
                        "arrival waves (default 1: all at once)")
    p.add_argument("--load-wave-interval-ms", type=float, default=0.0,
                   metavar="MS",
                   help="quiet gap between load waves in milliseconds "
                        "(default 0); chaos runs use this so opened "
                        "circuit breakers can half-open and close")
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="default per-query deadline: queries not "
                        "answered in time fail fast with "
                        "DeadlineExceededError instead of waiting "
                        "(JSONL requests may override per query; "
                        "default: no deadline)")
    p.add_argument("--breaker-threshold", type=int, default=5, metavar="K",
                   help="consecutive batch failures that open a "
                        "model's circuit breaker (default 5)")
    p.add_argument("--breaker-open-ms", type=float, default=250.0,
                   metavar="MS",
                   help="base open window before a breaker's half-open "
                        "probe, jittered +0..25%% (default 250)")
    p.add_argument("--registry-budget-mb", type=float, default=None,
                   metavar="MB",
                   help="disk budget for the model registry: after "
                        "each store, least-recently-used entries are "
                        "evicted until under budget (default: unbounded)")
    p.add_argument("--runtime-workers", type=int, default=0, metavar="N",
                   help="worker processes for offloaded runtime replay "
                        "(default 0: serial in the offload thread, "
                        "which still never blocks the event loop)")
    p.add_argument("--no-harden", action="store_true",
                   help="disable the serving resilience layer "
                        "(circuit breakers, worker offload) — the "
                        "overhead benchmark's baseline")
    p.add_argument("--summary-out", default=None, metavar="FILE",
                   help="also write serve_summary.json (engine, "
                        "batcher, registry, resilience tallies) to "
                        "this path")
    p.add_argument("--telemetry-out", default=None, metavar="FILE",
                   help="append one JSON flight-recorder record per "
                        "telemetry interval (per-interval counter and "
                        "latency-histogram deltas, queue depths, "
                        "breaker states, loop lag, slow queries); "
                        "read it back with `repro stats`")
    p.add_argument("--prom-out", default=None, metavar="FILE",
                   help="rewrite this file atomically each telemetry "
                        "interval with Prometheus text exposition of "
                        "the live metrics registry")
    p.add_argument("--telemetry-interval", type=float, default=1000.0,
                   metavar="MS",
                   help="sampling interval for --telemetry-out / "
                        "--prom-out in milliseconds (default 1000)")
    _add_exec_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "stats",
        help="summarize a serve flight-recorder file",
        description="Read a --telemetry-out flight recorder (complete, "
                    "or mid-run with a torn final line) and print "
                    "end-to-end totals, a per-interval rate timeline, "
                    "per-tenant and breaker summaries, and the slowest "
                    "queries.",
    )
    p.add_argument("--telemetry", required=True, metavar="FILE",
                   help="flight-recorder JSONL written by "
                        "`repro serve --telemetry-out`")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="slow-query log entries to show (default 10)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the full stats document as JSON instead "
                        "of tables")
    p.set_defaults(fn=cmd_stats)

    return parser


def _export_obs_artifacts(args: argparse.Namespace) -> None:
    """Flush requested trace/metrics artifacts (best effort, post-run)."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out and obs_trace.is_enabled():
        obs_trace.current().export_chrome(trace_out)
        log.info("wrote chrome trace: %s", trace_out)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        REGISTRY.export(metrics_out)
        log.info("wrote metrics: %s", metrics_out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    obs_log.configure(
        level=getattr(args, "log_level", None),
        json_mode=True if getattr(args, "log_json", False) else None,
        quiet=getattr(args, "quiet", False),
    )
    try:
        _check_obs_paths(args)
    except (ReproError, ValidationError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    # per-invocation observability state: a fresh registry and tracer,
    # so repeated in-process main() calls (tests) never accumulate
    REGISTRY.reset()
    want_trace = bool(
        getattr(args, "trace_out", None)
        or os.environ.get(obs_trace.ENV_TRACE)
    )
    obs_trace.disable()
    if want_trace:
        obs_trace.enable()
    try:
        with obs_trace.span(f"cli.{args.command}"):
            return args.fn(args)
    except (ReproError, ValidationError) as exc:
        # structured pipeline/usage/validation error: one actionable
        # line, status 2 (GuardError is a ReproError, so strict-policy
        # refusals land here too)
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    finally:
        _export_obs_artifacts(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
