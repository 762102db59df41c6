"""``repro stats``: summarize a ``serve`` flight-recorder file.

Reads a ``--telemetry-out`` recorder (complete, or mid-run with a torn
final line), digests it with :func:`repro.obs.telemetry.stats_doc`, and
prints end-to-end totals, a per-interval rate timeline, per-tenant and
breaker summaries, and the slowest queries — or the whole document as
JSON with ``--json``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli.options import Checked, at_least
from repro.util.errors import UsageError
from repro.util.tables import Table


def _render_stats(doc: dict) -> str:
    """Human rendering of one stats document (the golden-tested text)."""
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
        f"rejected={totals['rejected']} memo_hits={totals['memo_hits']} "
        f"batches={totals['batches']} "
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
    keys = ("seq", "t_s", "interval_s", "answered", "qps", "p50_ms", "p95_ms")
    for entry in doc["timeline"]:
        # the percentiles are absent for an interval that answered nothing
        timeline.add_row(*(entry.get(k, "-") for k in keys))
    out.append("")
    out.append(timeline.render())
    if doc["tenants"]:
        fields = ("queries", "answered", "failed", "rejected", "waits")
        tenants = Table(["tenant", *fields], title="tenants")
        for tenant, row in doc["tenants"].items():
            tenants.add_row(tenant, *(row[f] for f in fields))
        out.append("")
        out.append(tenants.render())
    if doc["transitions"] or doc["breakers"]:
        breakers = Table(
            ["seq", "t_s", "transition"], title="breaker transitions"
        )
        for entry in doc["transitions"]:
            breakers.add_row(entry["seq"], entry["t_s"], entry["transition"])
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
    from repro.obs.telemetry import read_flight_records, stats_doc

    path = Path(args.telemetry)
    if not path.exists():
        raise UsageError(f"--telemetry file not found: {path}")
    records = read_flight_records(path)
    if not records:
        print(f"stats: no complete records in {path} (empty or torn file)")
        return 0
    doc = stats_doc(records, args.top)
    if args.as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(_render_stats(doc))
    return 0


def add_parser(sub) -> None:
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
                   action=Checked, check=at_least(0),
                   help="slow-query log entries to show (default 10)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the full stats document as JSON instead "
                        "of tables")
    p.set_defaults(fn=cmd_stats)
