"""Structured, rate-limit-safe logging for the pipeline.

Built on stdlib :mod:`logging` under the ``repro`` logger namespace:

- :func:`get_logger` hands out ``repro.<name>`` child loggers;
- :func:`configure` installs exactly one stderr handler on the
  ``repro`` root with either the human console formatter or the JSONL
  formatter, driven by the ``--log-level``/``--log-json``/``--quiet``
  CLI flags or the ``REPRO_LOG`` environment variable
  (``REPRO_LOG=debug``, ``REPRO_LOG=json:info``, ...);
- a :class:`RateLimitFilter` keeps repeated messages (retry storms,
  per-rank diagnostics) from flooding the console: at most ``burst``
  records per (logger, level, template) per ``interval_s`` window, with
  a ``(+N suppressed)`` annotation when the window reopens;
- a :class:`TaskContextFilter` stamps every record with the current
  task key (:func:`set_task_context`), so pool workers log with
  ``task=collect:uh3d:1024:rank7``-style context.

Everything goes to **stderr**; stdout is reserved for result tables.
Log output never feeds back into any computation, so enabling it cannot
change numeric results.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from typing import Dict, Optional

#: environment configuration, e.g. ``REPRO_LOG=debug`` or ``json:info``
ENV_LOG = "REPRO_LOG"

ROOT_LOGGER = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

#: mutable task context stamped onto records by TaskContextFilter
_TASK_CONTEXT: Dict[str, str] = {}


def get_logger(name: str) -> logging.Logger:
    """The ``repro.<name>`` logger (idempotent, hierarchy-aware)."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def set_task_context(**context: str) -> None:
    """Attach key=value context to every subsequent record (worker use)."""
    _TASK_CONTEXT.update({k: str(v) for k, v in context.items()})


def clear_task_context() -> None:
    _TASK_CONTEXT.clear()


class TaskContextFilter(logging.Filter):
    """Copies the current task context onto each record (never drops)."""

    def filter(self, record: logging.LogRecord) -> bool:
        record.task_context = dict(_TASK_CONTEXT)
        return True


class RateLimitFilter(logging.Filter):
    """Token-bucket per (logger, level, template): ``burst`` per window.

    Keyed on ``record.msg`` (the *template*, before ``%`` formatting) so
    a storm of per-task messages that differ only in arguments counts as
    one key.  When a window expires with suppressed records, the next
    allowed record is annotated with ``(+N suppressed)``.
    """

    def __init__(self, burst: int = 20, interval_s: float = 1.0):
        super().__init__()
        self.burst = burst
        self.interval_s = interval_s
        self._windows: Dict[tuple, list] = {}  # key -> [start, allowed, dropped]

    def filter(self, record: logging.LogRecord) -> bool:
        key = (record.name, record.levelno, str(record.msg))
        now = time.monotonic()
        window = self._windows.get(key)
        if window is None or now - window[0] >= self.interval_s:
            dropped = window[2] if window else 0
            self._windows[key] = [now, 1, 0]
            if dropped:
                record.msg = f"{record.msg} (+{dropped} suppressed)"
            return True
        if window[1] < self.burst:
            window[1] += 1
            return True
        window[2] += 1
        return False


class HumanFormatter(logging.Formatter):
    """``HH:MM:SS LEVEL logger: message [k=v ...]`` console lines."""

    def format(self, record: logging.LogRecord) -> str:
        ts = time.strftime("%H:%M:%S", time.localtime(record.created))
        short = record.name
        if short.startswith(ROOT_LOGGER + "."):
            short = short[len(ROOT_LOGGER) + 1:]
        line = f"{ts} {record.levelname:<7} {short}: {record.getMessage()}"
        context = getattr(record, "task_context", None)
        if context:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(context.items()))
            line = f"{line} [{pairs}]"
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, msg (+ context)."""

    def format(self, record: logging.LogRecord) -> str:
        doc = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
            "pid": record.process,
        }
        context = getattr(record, "task_context", None)
        if context:
            doc["context"] = context
        if record.exc_info:
            doc["exc"] = self.formatException(record.exc_info)
        return json.dumps(doc, sort_keys=True)


def _parse_env(value: str) -> tuple:
    """``REPRO_LOG`` grammar: tokens split on ``:``/``,``.

    Tokens are level names (``debug``/``info``/``warning``/``error``)
    and the format selectors ``json``/``human``; unknown tokens are
    ignored rather than fatal (an env typo must not kill a run).
    """
    level = None
    json_mode = None
    for token in value.replace(",", ":").split(":"):
        token = token.strip().lower()
        if token in _LEVELS:
            level = token
        elif token == "json":
            json_mode = True
        elif token == "human":
            json_mode = False
    return level, json_mode


def configure(
    level: Optional[str] = None,
    json_mode: Optional[bool] = None,
    *,
    quiet: bool = False,
    stream=None,
    burst: int = 20,
    interval_s: float = 1.0,
) -> logging.Logger:
    """(Re)configure the ``repro`` root logger.

    Explicit arguments win over ``$REPRO_LOG``; the default is
    human-formatted ``warning`` so library use stays silent unless asked.
    ``quiet`` forces ``error`` regardless of every other source — the
    ``--quiet`` contract is "results only".
    """
    env_level, env_json = _parse_env(os.environ.get(ENV_LOG, ""))
    if level is None:
        level = env_level or "warning"
    if json_mode is None:
        json_mode = bool(env_json)
    if quiet:
        level = "error"

    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(_LEVELS[level])
    root.propagate = False
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter() if json_mode else HumanFormatter())
    handler.addFilter(TaskContextFilter())
    handler.addFilter(RateLimitFilter(burst=burst, interval_s=interval_s))
    root.addHandler(handler)
    return root


def is_configured() -> bool:
    return bool(logging.getLogger(ROOT_LOGGER).handlers)


def worker_init() -> None:
    """Per-worker logging setup (called when a lane's worker starts).

    Forked workers inherit the parent's handlers and need nothing;
    spawned workers start bare and are configured from ``$REPRO_LOG``.
    Either way the task-context store starts clean.
    """
    clear_task_context()
    if not is_configured() and os.environ.get(ENV_LOG):
        configure()
