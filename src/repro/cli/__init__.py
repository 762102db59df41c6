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
``stats``          summarize a ``serve`` flight-recorder file
=================  ====================================================

The batch commands live here; ``dag``, ``serve`` and ``stats`` have a
module each, and every command builds its flags from the shared groups
in :mod:`repro.cli.options`.

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
malformed count lists, out-of-range numbers, unwritable output paths)
exit with status 2 and a one-line message — never a traceback — before
anything is collected or written.

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
from repro.cli import dag, options, serve, stats
from repro.cli.options import Checked, dir_out, file_out, parse_counts, positive
from repro.core.canonical import EXTENDED_FORMS, PAPER_FORMS
from repro.exec.resilience import RunReport
from repro.guard.degrade import DegradationReport
from repro.guard.engine import (
    check_prediction_inputs,
    check_signature,
    guarded_extrapolate_many,
)
from repro.guard.violations import GuardError, GuardViolation
from repro.machine.systems import MACHINE_BUILDERS, get_machine, get_spec
from repro.obs import log as obs_log
from repro.obs import manifest as obs_manifest
from repro.obs import trace as obs_trace
from repro.obs.metrics import REGISTRY
from repro.pipeline.collect import collect_signatures
from repro.pipeline.experiment import Table1Config, run_table1
from repro.pipeline.predict import measure_runtime, predict_runtime
from repro.pipeline.report import table1_report
from repro.trace.tracefile import TraceFile
from repro.util.errors import ReproError, UsageError
from repro.util.validation import ValidationError

log = obs_log.get_logger("cli")

QUALITY_SIDECAR_SUFFIX = ".quality.json"


def _load_trace(path: str) -> TraceFile:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"trace file {path!r} does not exist")
    if p.suffix == ".jsonl":
        return TraceFile.load_jsonl(p)
    return TraceFile.load_npz(p)


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


# ----------------------------------------------------------------------
# batch commands


def cmd_list(args: argparse.Namespace) -> int:
    print("applications:")
    for name in sorted(APP_BUILDERS):
        print(f"  {name}")
    print("machines:")
    for name in sorted(MACHINE_BUILDERS):
        print(f"  {name}")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    app = get_app(args.app)
    machine = get_machine(args.machine)
    guard = options.build_guard(args)
    cache = options.build_cache(args)
    report = RunReport()
    with options.degradation(args, guard) as degradation:
        signature = collect_signatures(
            app, [args.ranks], machine.hierarchy,
            options.build_collection(args, cache), cache=cache, report=report,
        )[0]
        check_signature(signature, config=guard, report=degradation)
    signature.save_dir(args.out)
    options.log_cache_stats(cache)
    options.log_run_health(report)
    options.log_guard(degradation)
    outputs = {
        p.name: p
        for p in sorted(Path(args.out).iterdir())
        if p.is_file() and p.name != obs_manifest.MANIFEST_NAME
    }
    options.write_manifest(
        args,
        command="collect",
        outputs=outputs,
        cache=cache,
        report=report,
        guard=degradation,
        path=args.manifest_out
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
    guard = options.build_guard(args)
    traces = [_load_trace(p) for p in args.trace]
    forms = EXTENDED_FORMS if args.extended_forms else PAPER_FORMS
    with options.degradation(args, guard) as degradation:
        sweep, _ = guarded_extrapolate_many(
            traces, args.target, forms=forms, config=guard,
            report=degradation,
        )
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
    options.log_guard(degradation)
    options.write_manifest(
        args, command="extrapolate", outputs=outputs, app=traces[0].app,
        guard=degradation,
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    app = get_app(args.app)
    machine = get_machine(args.machine)
    guard = options.build_guard(args)
    trace = _load_trace(args.trace)
    quality = _load_quality_sidecar(args.trace) if guard is not None else None
    with options.degradation(args, guard) as degradation:
        check_prediction_inputs(
            trace, machine, config=guard, report=degradation
        )
        if quality is not None and quality.get("trust_fraction") is not None:
            trust = float(quality["trust_fraction"])
            floor = args.trust_threshold
            if floor is not None and trust < floor:
                message = (
                    f"extrapolation trust fraction {trust:.3f} below the "
                    f"--trust-threshold floor {floor:g} "
                    f"(from {args.trace}{QUALITY_SIDECAR_SUFFIX})"
                )
                if guard.strict:
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
    options.log_guard(degradation)
    options.write_manifest(
        args,
        command="predict",
        outputs={"prediction.txt": (line + "\n").encode("utf-8")},
        guard=degradation,
    )
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    result = measure_runtime(get_app(args.app), args.ranks, get_spec(args.machine))
    line = (
        f"{args.app} @ {args.ranks} ranks on {args.machine}: "
        f"measured runtime {result.runtime_s:.6f} s"
    )
    print(line)
    options.write_manifest(
        args,
        command="measure",
        outputs={"measurement.txt": (line + "\n").encode("utf-8")},
    )
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    app = get_app(args.app)
    guard = options.build_guard(args)
    cache = options.build_cache(args)
    config = Table1Config(
        machine=args.machine,
        collection=options.build_collection(args, cache),
        cache=cache,
        guard=guard,
    )
    with options.degradation(args, guard) as degradation:
        # looked up as this package's global at call time, so a caller
        # that rebinds ``repro.cli.run_table1`` sees every Table I run
        result = run_table1(
            app, args.train, args.target, config, degradation=degradation
        )
    rendered = (
        table1_report(result.rows)
        + f"\nmeasured runtime: {result.measured_runtime_s:.6f} s\n"
    )
    print(rendered, end="")
    # only a run the guards touched gets a stdout line — a clean run's
    # stdout stays byte-identical to the rendered table artifact
    if not result.degradation.clean:
        print(f"guard: {result.degradation.summary()}")
    options.log_cache_stats(cache)
    options.log_run_health(result.run_report)
    options.log_guard(result.degradation)
    options.write_manifest(
        args,
        command="table1",
        outputs={"table1.txt": rendered.encode("utf-8")},
        cache=cache,
        report=result.run_report,
        guard=result.degradation,
    )
    return 0


# ----------------------------------------------------------------------
# parser and entry point


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
    options.add_app_flags(p)
    options.add_ranks_flag(p)
    p.add_argument("--out", required=True, action=Checked, check=dir_out,
                   help="signature output directory")
    options.add_collection_flags(p)
    options.add_guard_flags(p)
    options.add_obs_flags(p)
    p.set_defaults(fn=cmd_collect)

    p = sub.add_parser("extrapolate", help="synthesize a large-count trace")
    p.add_argument("--trace", required=True, nargs="+",
                   help="training trace files (.npz or .jsonl)")
    p.add_argument("--target", required=True, type=parse_counts,
                   help="target core count, or a comma-separated sweep "
                        "(fits once, evaluates every target)")
    options.add_forms_flag(p)
    p.add_argument("--out", required=True, action=Checked, check=file_out,
                   help="output .npz path; with a multi-target sweep it "
                        "must contain a {target} placeholder")
    options.add_guard_flags(p)
    options.add_obs_flags(p)
    p.set_defaults(fn=cmd_extrapolate)

    p = sub.add_parser("predict", help="predict runtime from a trace")
    options.add_app_flags(p)
    options.add_ranks_flag(p)
    p.add_argument("--trace", required=True)
    options.add_guard_flags(
        p,
        trust_help="minimum extrapolation trust fraction (from the "
                   "trace's .quality.json sidecar) to accept: below it, "
                   "--guard strict refuses and --guard degrade warns "
                   "(default: no floor)",
        trust_default=None,
    )
    options.add_obs_flags(p)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("measure", help="ground-truth runtime of an app")
    options.add_app_flags(p)
    options.add_ranks_flag(p)
    options.add_obs_flags(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("table1", help="run the Table I protocol")
    options.add_app_flags(p)
    options.add_train_flag(p)
    p.add_argument("--target", required=True, type=int, action=Checked,
                   check=positive, help="target core count")
    options.add_collection_flags(p)
    options.add_guard_flags(p)
    options.add_obs_flags(p)
    p.set_defaults(fn=cmd_table1)

    dag.add_parsers(sub)
    serve.add_parser(sub)
    stats.add_parser(sub)
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
        options.check_args(args)
    except UsageError as exc:
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
