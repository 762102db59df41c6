"""``repro dag run`` / ``repro dag status``: the sweep as a pipeline DAG.

``run`` executes the full sweep (collect, fit, extrapolate, convolve,
predict, measure, report) incrementally under ``--dag-root``,
recomputing only dirty nodes; ``status`` says what ``run`` would
recompute right now, and why.  Both take the same spec flags, so the
same command line names the same graph.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

from repro.cli import options
from repro.cli.options import Checked, at_least, parse_counts, positive
from repro.exec.resilience import RunReport
from repro.obs import log as obs_log
from repro.obs import manifest as obs_manifest
from repro.pipeline.dag import SweepSpec, dag_status, run_dag
from repro.util.tables import Table

log = obs_log.get_logger("cli")


def _dag_root(args: argparse.Namespace) -> Path:
    root = (
        args.dag_root
        or os.environ.get("REPRO_DAG_ROOT")
        or os.path.expanduser("~/.cache/repro/dag")
    )
    options.check_writable("--dag-root", str(root), is_dir=True)
    return Path(root)


def _build_sweep_spec(args: argparse.Namespace) -> SweepSpec:
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
    spec = _build_sweep_spec(args)
    root = _dag_root(args)
    report = RunReport()
    result = run_dag(
        spec,
        root,
        fresh=args.fresh,
        workers=args.workers,
        resilience=options.build_resilience(args),
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
    options.log_run_health(report)
    for name, message in sorted(result.errors.items()):
        log.error("dag node failed: %s: %s", name, message)
    for name, status in sorted(result.statuses.items()):
        if status == "poisoned":
            log.warning("dag node poisoned (upstream failure): %s", name)
    options.write_manifest(
        args,
        command="dag-run",
        outputs=outputs,
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


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    """The flags that name one sweep graph (shared by run and status)."""
    options.add_app_flags(p)
    options.add_train_flag(p)
    p.add_argument("--targets", required=True, type=parse_counts,
                   help="comma-separated target core counts")
    options.add_engine_flag(p)
    options.add_forms_flag(p)
    p.add_argument("--no-table1", action="store_true",
                   help="skip the Table I validation arm (collected-"
                        "trace prediction + ground truth at the "
                        "first target)")
    p.add_argument("--rate-trust-factor", type=float, default=2.0,
                   action=Checked, check=at_least(0),
                   help="extrapolation rate clamp (default 2.0)")
    p.add_argument("--accesses-per-probe", type=int, default=100_000,
                   action=Checked, check=positive,
                   help="machine-profile probe budget")
    p.add_argument("--sample-accesses", type=int, default=200_000,
                   action=Checked, check=positive,
                   help="per-block sampled accesses per pass")
    p.add_argument("--max-sample-accesses", type=int, default=3_000_000,
                   action=Checked, check=positive,
                   help="total sampled-access cap per trace")
    p.add_argument("--code-version", default=None, metavar="TOKEN",
                   help="code-version token in node keys (default: "
                        "SHA-256 of the repro package's sources)")
    p.add_argument("--dag-root", default=None, metavar="DIR",
                   help="artifact/state directory (default: "
                        "$REPRO_DAG_ROOT or ~/.cache/repro/dag)")


def add_parsers(sub) -> None:
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

    dp = dag_sub.add_parser(
        "run", help="execute the sweep DAG, recomputing only dirty nodes"
    )
    _add_spec_flags(dp)
    dp.add_argument("--fresh", action="store_true",
                    help="ignore all prior node state and recompute "
                         "everything (truncates the state store); without "
                         "it, committed nodes of earlier or interrupted "
                         "runs are reused")
    options.add_pool_flags(dp)
    dp.add_argument("--lock-stale", type=float, default=30.0,
                    metavar="SECONDS", action=Checked, check=positive,
                    help="node locks older than this are presumed "
                         "abandoned and taken over (default 30)")
    dp.add_argument("--lock-poll", type=float, default=0.05,
                    metavar="SECONDS", action=Checked, check=positive,
                    help="poll interval while another process holds a "
                         "node lock (default 0.05)")
    dp.add_argument("--lock-wait", type=float, default=600.0,
                    metavar="SECONDS", action=Checked, check=positive,
                    help="give up waiting for another process's node "
                         "lock after this long (default 600)")
    options.add_obs_flags(dp)
    dp.set_defaults(fn=cmd_dag_run)

    dp = dag_sub.add_parser(
        "status", help="show per-node dirtiness without running anything"
    )
    _add_spec_flags(dp)
    dp.add_argument("--explain", action="store_true",
                    help="add the reason each node is clean or dirty")
    dp.add_argument("--json", action="store_true",
                    help="machine-readable status document on stdout")
    options.add_obs_flags(dp)
    dp.set_defaults(fn=cmd_dag_status)
