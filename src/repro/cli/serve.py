"""``repro serve``: answer what-if queries from a fitted-model registry.

Fits (or loads) one model and serves it either over the JSONL protocol
on stdin/stdout (one request per line, ``{"id", "target", "kind",
"tenant", "deadline_ms"}``; one answer per line in completion order; a
malformed line gets an error answer, never a crash) or as a replayable
synthetic load (``--load-gen``).  Both modes run inside :func:`_serving`,
and SIGTERM/SIGINT drain gracefully to exit status 0.

The stdin server starts no thread.  It reads fd 0 from the event loop
(one ``os.read`` per readiness event) and handles each complete line in
that loop turn: it parses the line, submits the query, and writes the
answer at once when the engine answered at admission (a memo hit), or
from the query future's done-callback otherwise.  Stdin that epoll
cannot watch (a regular file, ``/dev/null``, an in-memory stream) is
read in chunks from loop callbacks instead, and a missing stdin is an
empty one.  If an answer cannot be written (the reader of stdout went
away), serving stops: admitted queries finish unwritten, the summary
and manifest are still written, and the exit status is 1.

``repro.serve`` and ``asyncio`` are imported inside the functions, so
``import repro.cli`` stays cheap for the batch commands.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import Optional

from repro.cli import options
from repro.cli.options import Checked, at_least, file_out, parse_counts, positive
from repro.core.canonical import EXTENDED_FORMS, PAPER_FORMS
from repro.obs import log as obs_log
from repro.pipeline.experiment import Table1Config
from repro.util.errors import ReproError

log = obs_log.get_logger("cli")


#: feature summaries a stdin server keeps (oldest dropped first)
SUMMARY_ENTRIES = 4096
#: bytes one read of stdin takes at most
READ_CHUNK = 1 << 16


def _feature_summary(answer, schema, summaries: dict) -> dict:
    """Compact JSONL view of one answer's feature matrix.

    ``features_sha256`` digests the raw float64 bytes, so two serving
    runs (batched or not) can be compared for bit-identity from the
    protocol alone.  An answer's bytes are pure in its (model, target),
    so ``summaries`` keeps each view under that key and digests it once.
    """
    key = (answer.model, answer.target)
    doc = summaries.get(key)
    if doc is not None:
        return doc
    import hashlib

    import numpy as np

    values = np.ascontiguousarray(answer.values, dtype=np.float64)
    hr = values[:, schema.hit_rate_slice]
    doc = {
        "n_pairs": int(values.shape[0]),
        "features_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        "mean_hit_rates": {
            level: round(float(hr[:, j].mean()), 6) if hr.size else 0.0
            for j, level in enumerate(schema.level_names)
        },
    }
    if len(summaries) >= SUMMARY_ENTRIES:
        del summaries[next(iter(summaries))]
    summaries[key] = doc
    return doc


@contextlib.asynccontextmanager
async def _serving(engine, telemetry, on_signal):
    """Run the body with the engine and telemetry up and SIGTERM/SIGINT
    routed into ``on_signal``; then unhook, drain the engine, and stop
    telemetry last, so its final record closes the books exactly.

    Platforms without loop signal support (Windows) keep the default
    KeyboardInterrupt behavior.
    """
    import asyncio
    import signal

    await engine.start()
    if telemetry is not None:
        await telemetry.start()
    loop = asyncio.get_running_loop()
    signals = (signal.SIGINT, signal.SIGTERM)
    unsupported = (NotImplementedError, RuntimeError, ValueError)
    for sig in signals:
        with contextlib.suppress(*unsupported):
            loop.add_signal_handler(sig, on_signal)
    try:
        yield
    finally:
        for sig in signals:
            with contextlib.suppress(*unsupported):
                loop.remove_signal_handler(sig)
        await engine.stop()
        if telemetry is not None:
            await telemetry.stop()


class _StdinServer:
    """The JSONL protocol on the event loop.

    Each request line is parsed, built into a :class:`~repro.serve.Query`
    and submitted in the loop turn that read it; an answer the engine
    gives at admission is written in that turn too, and any other
    answer is written by its future's done-callback.  ``ended``
    resolves with how serving ended: ``"eof"``, ``"drain"``
    (SIGTERM/SIGINT) or ``"broken"`` (an answer write failed, kept in
    ``write_error``).
    """

    def __init__(self, engine, schema, deadline_ms, loop):
        from repro.serve import Query

        self._query = Query
        self.engine = engine
        self.schema = schema
        self.deadline_ms = deadline_ms
        self.loop = loop
        self.ended = loop.create_future()
        self.write_error: Optional[OSError] = None
        #: futures of submitted requests still waiting for an answer
        self.pending: set = set()
        self._summaries: dict = {}
        self._tail = b""
        self._reader_fd: Optional[int] = None

    def start_reading(self) -> None:
        stdin = sys.stdin
        if stdin is None:  # fd 0 was closed when the interpreter started
            self.feed(b"")
            return
        try:
            fd = stdin.fileno()
            self.loop.add_reader(fd, self._on_readable, fd)
            self._reader_fd = fd
        except (OSError, ValueError, NotImplementedError):
            # a regular file, /dev/null, a closed fd or an in-memory
            # stream: epoll cannot watch it, and reading it never blocks
            self.loop.call_soon(self._pump, getattr(stdin, "buffer", stdin))

    def end(self, how: str) -> None:
        """Stop reading stdin; the first call says how serving ended."""
        if self._reader_fd is not None:
            self.loop.remove_reader(self._reader_fd)
            self._reader_fd = None
        if not self.ended.done():
            self.ended.set_result(how)

    def _on_readable(self, fd: int) -> None:
        try:
            chunk = os.read(fd, READ_CHUNK)
        except OSError as exc:
            log.warning("cannot read stdin (%s); treating it as its end", exc)
            chunk = b""
        self.feed(chunk)

    def _pump(self, stream) -> None:
        """Read one chunk of a stream epoll cannot watch; reschedule."""
        if self.ended.done():
            return
        try:
            chunk = stream.read(READ_CHUNK)
        except OSError as exc:
            log.warning("cannot read stdin (%s); treating it as its end", exc)
            chunk = b""
        if isinstance(chunk, str):  # an in-memory text stream
            chunk = chunk.encode("utf-8", "surrogatepass")
        if chunk:  # scheduled first: a line that raises stops no reading
            self.loop.call_soon(self._pump, stream)
        self.feed(chunk)

    def feed(self, chunk: bytes) -> None:
        """Handle each complete line of ``chunk``; ``b""`` is end of input,
        which answers a last line that has no newline."""
        if self.ended.done():
            return
        if not chunk:
            tail, self._tail = self._tail, b""
            self._handle(tail)
            self.end("eof")
            return
        *lines, self._tail = (self._tail + chunk).split(b"\n")
        for line in lines:
            self._handle(line)
            if self.ended.done():  # stdout is gone
                return

    def _handle(self, line: bytes) -> None:
        line = line.strip()
        if not line:
            return
        req_id = None
        try:
            req = json.loads(line)
            if not isinstance(req, dict):
                raise TypeError("a request must be a JSON object")
            req_id = req.get("id")
            deadline = req.get("deadline_ms", self.deadline_ms)
            query = self._query(
                target=int(req["target"]),
                tenant=str(req.get("tenant", "default")),
                kind=str(req.get("kind", "features")),
                deadline_ms=float(deadline) if deadline is not None else None,
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                ReproError) as exc:
            self._write({"id": req_id, "ok": False, "error": str(exc)})
            return
        fut = self.engine.submit(query)
        if fut.done():
            self._deliver(req_id, fut)
        else:
            self.pending.add(fut)
            fut.add_done_callback(partial(self._deliver, req_id))

    def _deliver(self, req_id, fut) -> None:
        """Write the answer line of one resolved request."""
        self.pending.discard(fut)
        if fut.cancelled():
            return
        try:
            answer = fut.result()
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
                **_feature_summary(answer, self.schema, self._summaries),
            }
            if answer.runtime_s is not None:
                doc["runtime_s"] = answer.runtime_s
        self._write(doc)

    def _write(self, doc: dict) -> None:
        if self.write_error is not None:
            return
        try:
            print(json.dumps(doc), flush=True)
        except OSError as exc:
            # the reader of stdout is gone: later answers have nowhere
            # to go, and fd 1 goes to /dev/null so the exit-time flush
            # of the unwritten line cannot fail again
            self.write_error = exc
            with contextlib.suppress(OSError, ValueError):
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            self.end("broken")


async def _serve_stdin_loop(engine, schema, *, deadline_ms=None, telemetry=None):
    """JSONL request/response over stdin/stdout until EOF, a signal, or
    a failed answer write; returns the :class:`_StdinServer`.

    However serving ends, admission closes and every admitted query is
    answered (or, once stdout is gone, computed and dropped) before the
    engine stops — never a mid-batch teardown.
    """
    import asyncio

    server = _StdinServer(
        engine, schema, deadline_ms, asyncio.get_running_loop()
    )
    async with _serving(engine, telemetry, lambda: server.end("drain")):
        server.start_reading()
        await server.ended
        engine.stop_admission()
        if server.pending:
            await asyncio.wait(server.pending)
    return server


async def _serve_load_main(engine, load_spec, digest, telemetry=None):
    from repro.serve import run_load, synthetic_queries

    # a signal mid-load closes admission: the unsubmitted remainder is
    # counted as rejected and the run exits 0 with its partial report
    async with _serving(engine, telemetry, engine.stop_admission):
        queries = synthetic_queries(load_spec, model=digest)
        return await run_load(engine, queries, spec=load_spec)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import (
        LoadSpec,
        ModelRegistry,
        ModelSpec,
        QueryEngine,
        ServeConfig,
    )

    registry_dir = (
        args.registry
        or os.environ.get("REPRO_MODEL_REGISTRY")
        or str(Path.home() / ".cache" / "repro" / "models")
    )
    options.check_writable("--registry", registry_dir, is_dir=True)
    cache = options.build_cache(args)
    fit_config = Table1Config(
        machine=args.machine,
        forms=EXTENDED_FORMS if args.extended_forms else PAPER_FORMS,
        collection=options.build_collection(args, cache),
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
        write_error = None
    else:
        load_report = None
        server = asyncio.run(
            _serve_stdin_loop(
                engine,
                model.template.schema,
                deadline_ms=args.deadline_ms,
                telemetry=telemetry,
            )
        )
        drained = server.ended.result() == "drain"
        write_error = server.write_error

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
    options.log_cache_stats(cache)
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
    options.write_manifest(
        args,
        command="serve",
        outputs=outputs,
        cache=cache,
        serve=engine.report,
    )
    if write_error is not None:
        print(
            f"repro: error: cannot write answers to stdout ({write_error}); "
            f"stopped serving",
            file=sys.stderr,
        )
        return 1
    return 0


def add_parser(sub) -> None:
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
    options.add_app_flags(p)
    options.add_train_flag(p)
    p.add_argument("--registry", default=None, metavar="DIR",
                   help="fitted-model registry directory (default: "
                        "$REPRO_MODEL_REGISTRY or ~/.cache/repro/models)")
    p.add_argument("--mem-models", type=int, default=8, metavar="N",
                   action=Checked, check=at_least(1),
                   help="in-memory model LRU size in front of the "
                        "registry's disk tier (default 8)")
    options.add_forms_flag(p)
    p.add_argument("--batch-window", type=float, default=2.0, metavar="MS",
                   action=Checked, check=positive,
                   help="micro-batch coalescing window in milliseconds: "
                        "a batch flushes when full or this old "
                        "(default 2.0)")
    p.add_argument("--batch-max", type=int, default=64, metavar="N",
                   action=Checked, check=at_least(1),
                   help="maximum queries per micro-batch (default 64)")
    p.add_argument("--queue-depth", type=int, default=256, metavar="N",
                   action=Checked, check=at_least(1),
                   help="per-tenant admission queue bound (default 256)")
    p.add_argument("--admission", choices=("wait", "reject"),
                   default="wait",
                   help="policy when a tenant's queue is full: 'wait' "
                        "applies backpressure, 'reject' fails the query "
                        "fast (default wait)")
    p.add_argument("--load-gen", type=int, default=None, metavar="N",
                   action=Checked, check=at_least(1),
                   help="instead of serving stdin, fire N synthetic "
                        "queries (replayable keyed-RNG trace) and print "
                        "qps / latency percentiles")
    p.add_argument("--load-targets", type=parse_counts, default=None,
                   help="target core counts the synthetic load draws "
                        "from (default: training max x 2,4,8,16,32)")
    p.add_argument("--load-tenants", type=int, default=4, metavar="N",
                   action=Checked, check=at_least(1),
                   help="synthetic tenants issuing the load (default 4)")
    p.add_argument("--load-kind", choices=("features", "runtime"),
                   default="features",
                   help="query kind the synthetic load issues "
                        "(default features)")
    p.add_argument("--load-name", default="cli", metavar="NAME",
                   help="keyed-RNG stream name: same name, same load "
                        "(default 'cli')")
    p.add_argument("--load-waves", type=int, default=1, metavar="N",
                   action=Checked, check=at_least(1),
                   help="split the synthetic load into N sequential "
                        "arrival waves (default 1: all at once)")
    p.add_argument("--load-wave-interval-ms", type=float, default=0.0,
                   metavar="MS", action=Checked, check=at_least(0),
                   help="quiet gap between load waves in milliseconds "
                        "(default 0); chaos runs use this so opened "
                        "circuit breakers can half-open and close")
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   action=Checked, check=positive,
                   help="default per-query deadline: queries not "
                        "answered in time fail fast with "
                        "DeadlineExceededError instead of waiting "
                        "(JSONL requests may override per query; "
                        "default: no deadline)")
    p.add_argument("--breaker-threshold", type=int, default=5, metavar="K",
                   action=Checked, check=at_least(1),
                   help="consecutive batch failures that open a "
                        "model's circuit breaker (default 5)")
    p.add_argument("--breaker-open-ms", type=float, default=250.0,
                   metavar="MS", action=Checked, check=positive,
                   help="base open window before a breaker's half-open "
                        "probe, jittered +0..25%% (default 250)")
    p.add_argument("--registry-budget-mb", type=float, default=None,
                   metavar="MB", action=Checked, check=positive,
                   help="disk budget for the model registry: after "
                        "each store, least-recently-used entries are "
                        "evicted until under budget (default: unbounded)")
    p.add_argument("--runtime-workers", type=int, default=0, metavar="N",
                   action=Checked, check=at_least(0),
                   help="worker processes for offloaded runtime replay "
                        "(default 0: serial in the offload thread, "
                        "which still never blocks the event loop)")
    p.add_argument("--summary-out", default=None, metavar="FILE",
                   action=Checked, check=file_out,
                   help="also write serve_summary.json (engine, "
                        "batcher, registry, resilience tallies) to "
                        "this path")
    p.add_argument("--telemetry-out", default=None, metavar="FILE",
                   action=Checked, check=file_out,
                   help="append one JSON flight-recorder record per "
                        "telemetry interval (per-interval counter and "
                        "latency-histogram deltas, queue depths, "
                        "breaker states, loop lag, slow queries); "
                        "read it back with `repro stats`")
    p.add_argument("--prom-out", default=None, metavar="FILE",
                   action=Checked, check=file_out,
                   help="rewrite this file atomically each telemetry "
                        "interval with Prometheus text exposition of "
                        "the live metrics registry")
    p.add_argument("--telemetry-interval", type=float, default=1000.0,
                   metavar="MS", action=Checked, check=positive,
                   help="sampling interval for --telemetry-out / "
                        "--prom-out in milliseconds (default 1000)")
    options.add_collection_flags(p)
    options.add_obs_flags(p)
    p.set_defaults(fn=cmd_serve)
