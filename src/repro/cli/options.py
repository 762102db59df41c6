"""Shared flag groups of the ``repro`` commands, and their interpretation.

Each flag is declared once, in one group function below, with its type,
default and bound; a command opts into the groups it needs.  A bound
(:func:`positive`, :func:`at_least`) or an input check (known app or
machine, writable output path) rides on the declaration through the
:class:`Checked` action, which queues it when the flag is given on the
command line.  :func:`check_args` runs that queue once, after parsing
and before any command starts, so an invalid value exits 2 with one
``repro: error:`` line and nothing is collected or written.  Values
that default from the environment (``--registry``, ``--dag-root``) are
checked by their command once the default is resolved.

The ``build_*`` helpers turn parsed flags into the pipeline's config
objects; the manifest and log helpers are shared by every command.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
from functools import partial
from pathlib import Path
from typing import List, Optional

from repro.apps.registry import APP_BUILDERS
from repro.cache import ENGINE_NAMES, configure_profile_cache
from repro.exec.resilience import ResilienceConfig, RunReport
from repro.exec.sigcache import SignatureCache
from repro.guard.config import GuardConfig, POLICIES
from repro.guard.degrade import DegradationReport
from repro.instrument.collector import CollectorConfig
from repro.machine.systems import MACHINE_BUILDERS
from repro.obs import log as obs_log
from repro.obs import manifest as obs_manifest
from repro.obs import trace as obs_trace
from repro.pipeline.collect import CollectionSettings
from repro.util.errors import UsageError

log = obs_log.get_logger("cli")


# ----------------------------------------------------------------------
# declared checks: each is ``check(flag, value)`` and raises UsageError

#: namespace attribute where :class:`Checked` queues the given flags
_PENDING = "_pending_checks"


class Checked(argparse.Action):
    """Store the value and queue the flag's ``check`` for :func:`check_args`."""

    def __init__(self, option_strings, dest, *, check, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.check = check

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        vars(namespace).setdefault(_PENDING, {})[self.dest] = self


def check_args(args: argparse.Namespace) -> None:
    """Check the final value of every given checked flag, in the order
    the flags first appeared; raises :class:`UsageError`."""
    for dest, action in vars(args).pop(_PENDING, {}).items():
        action.check(action.option_strings[0], getattr(args, dest))


def positive(flag: str, value) -> None:
    if not value > 0:
        raise UsageError(f"{flag} must be positive, got {value}")


def at_least(low: int):
    def check(flag: str, value) -> None:
        if value < low:
            raise UsageError(f"{flag} must be >= {low}, got {value}")

    return check


def known(kind: str, plural: str, names):
    def check(flag: str, name: str) -> None:
        if name not in names:
            raise UsageError(
                f"unknown {kind} {name!r}; known {plural}: "
                f"{', '.join(sorted(names))} (see `repro list`)"
            )

    return check


def _nearest_existing_dir(path: Path) -> Path:
    path = path.absolute()
    for candidate in [path, *path.parents]:
        if candidate.exists():
            return candidate
    return Path("/")  # pragma: no cover - "/" always exists


def check_writable(flag: str, target: str, *, is_dir: bool) -> None:
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


file_out = partial(check_writable, is_dir=False)
dir_out = partial(check_writable, is_dir=True)


def parse_counts(text: str) -> List[int]:
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


# ----------------------------------------------------------------------
# flag groups


def add_app_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--app", required=True, action=Checked,
                   check=known("application", "apps", APP_BUILDERS),
                   help="application name (see `repro list`)")
    p.add_argument("--machine", default="blue_waters_p1", action=Checked,
                   check=known("machine", "machines", MACHINE_BUILDERS),
                   help="machine name (see `repro list`)")


def add_ranks_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ranks", required=True, type=int, action=Checked,
                   check=positive, help="core count (MPI ranks)")


def add_train_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", required=True, type=parse_counts,
                   help="comma-separated training core counts")


def add_forms_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--extended-forms", action="store_true",
                   help="include the paper's SVI extension forms")


def add_engine_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-engine", choices=ENGINE_NAMES, default="exact",
        help="how block hit rates are obtained: 'exact' replays every "
             "address through the hierarchy simulator; 'reuse' evaluates "
             "analytical reuse-distance profiles (much faster, ~1e-2 "
             "accuracy, cross-checked against exact by a guard gate)",
    )


def add_pool_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers", type=int, default=None, metavar="N", action=Checked,
        check=at_least(0),
        help="process-pool size for collection or DAG-node fan-out "
             "(default: one per CPU; 0 = serial)",
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        action=Checked, check=positive,
        help="per-attempt wall-clock budget for a pooled task; a hung "
             "task is killed with its pool and re-attempted "
             "(default: no budget)",
    )
    p.add_argument(
        "--max-retries", type=int, default=ResilienceConfig.max_retries,
        metavar="N", action=Checked, check=at_least(0),
        help="additional attempts per task after a crash, timeout, or "
             "transient error (default: %(default)s)",
    )


def add_collection_flags(p: argparse.ArgumentParser) -> None:
    """Hit-rate engine, signature cache and pool: how traces are collected."""
    add_engine_flag(p)
    p.add_argument(
        "--no-cache", action="store_true",
        help="always collect fresh, bypassing the signature cache",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR", action=Checked,
        check=dir_out,
        help="signature cache directory (default: $REPRO_SIGNATURE_CACHE "
             "or ~/.cache/repro/signatures); table1 also keeps the "
             "machine profile in its machines/ subdirectory",
    )
    add_pool_flags(p)


def add_guard_flags(
    p: argparse.ArgumentParser,
    *,
    trust_help: str = "per-element relative-error threshold for the "
                      "leave-one-out cross-validation gate; the fraction "
                      "of elements under it is the trust fraction "
                      "(default 0.2)",
    trust_default=0.2,
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
    # bounded by GuardConfig, whose message the guard tests pin
    g.add_argument(
        "--trust-threshold", type=float, default=trust_default,
        metavar="FRAC", help=trust_help,
    )
    g.add_argument(
        "--degradation-out", default=None, metavar="FILE", action=Checked,
        check=file_out,
        help="write the degradation report (violations, gate flags, "
             "repairs, refusals) here as JSON",
    )


def add_obs_flags(p: argparse.ArgumentParser) -> None:
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
        "--trace-out", default=None, metavar="FILE", action=Checked,
        check=file_out,
        help="write a Chrome-trace span timeline here "
             "(open in chrome://tracing or Perfetto)",
    )
    g.add_argument(
        "--metrics-out", default=None, metavar="FILE", action=Checked,
        check=file_out,
        help="write counters and timer histograms here as JSON",
    )
    g.add_argument(
        "--manifest-out", default=None, metavar="FILE", action=Checked,
        check=file_out,
        help="write a run manifest (config, git SHA, output digests) here",
    )


# ----------------------------------------------------------------------
# interpretation


def build_cache(args: argparse.Namespace) -> Optional[SignatureCache]:
    return None if args.no_cache else SignatureCache(args.cache_dir)


def build_resilience(args: argparse.Namespace) -> ResilienceConfig:
    return ResilienceConfig(
        task_timeout_s=args.task_timeout, max_retries=args.max_retries
    )


def build_collection(
    args: argparse.Namespace, cache: Optional[SignatureCache]
) -> CollectionSettings:
    """Collection settings from the collection flags.  With the
    analytical engine and a signature cache, reuse profiles persist next
    to the signatures so later geometries (and later runs) re-evaluate
    instead of re-profile."""
    if args.cache_engine == "reuse" and cache is not None:
        configure_profile_cache(Path(cache.root) / "profiles")
    return CollectionSettings(
        collector=CollectorConfig(engine=args.cache_engine),
        workers=args.workers,
        resilience=build_resilience(args),
    )


def build_guard(args: argparse.Namespace) -> Optional[GuardConfig]:
    """Interpret the guard flags; ``None`` when the policy is off.

    Threshold validation runs through :mod:`repro.util.validation`, so a
    bad ``--trust-threshold`` exits 2 with one line like every other
    invalid input.
    """
    if args.guard == "off":
        return None
    if args.trust_threshold is None:
        return GuardConfig(policy=args.guard)
    return GuardConfig(policy=args.guard, trust_threshold=args.trust_threshold)


@contextlib.contextmanager
def degradation(args: argparse.Namespace, guard: Optional[GuardConfig]):
    """A fresh degradation report for ``guard``, written to
    ``--degradation-out`` on the way out — also when a strict guard
    refuses, for the post-mortem."""
    degradation = (
        DegradationReport(policy="off") if guard is None
        else DegradationReport.for_config(guard)
    )
    try:
        yield degradation
    finally:
        path = args.degradation_out
        if path:
            Path(path).write_text(
                json.dumps(degradation.to_dict(), indent=2, sort_keys=True)
                + "\n"
            )
            log.info("wrote degradation report: %s", path)


def log_guard(degradation: DegradationReport) -> None:
    if not degradation.clean:
        log.warning("%s", degradation.summary())


def write_manifest(
    args: argparse.Namespace, *, command: str, outputs: dict,
    path: Optional[str] = None, **parts,
) -> None:
    """Write the run manifest when a path was requested (or defaulted).

    ``parts`` (app, machine, cache, report, guard, serve, dag) pass
    through to :func:`repro.obs.manifest.build_manifest`; app and
    machine default to the ``--app``/``--machine`` flags.
    """
    path = path or args.manifest_out
    if not path:
        return
    parts.setdefault("app", getattr(args, "app", None))
    parts.setdefault("machine", getattr(args, "machine", None))
    profile_cache = None
    if getattr(args, "cache_engine", None) == "reuse":
        from repro.cache.reuse import profile_cache as current_profile_cache

        profile_cache = current_profile_cache()
    doc = obs_manifest.build_manifest(
        command=command,
        config={k: v for k, v in vars(args).items() if k != "fn"},
        outputs=outputs,
        tracer=obs_trace.current() if obs_trace.is_enabled() else None,
        profile_cache=profile_cache,
        **parts,
    )
    obs_manifest.write_manifest(path, doc)
    log.info("wrote run manifest: %s", path)


def log_cache_stats(cache: Optional[SignatureCache]) -> None:
    if cache is not None:
        log.info("signature cache [%s]: %s", cache.root, cache.stats)


def log_run_health(report: Optional[RunReport]) -> None:
    if report is not None and report.events:
        log.warning("resilience: %s", report)
        for event in report.events:
            log.warning("  - %s", event)
