"""Durable append-only state store: the pipeline DAG's node records.

A :class:`RunJournal` is an append-only JSONL file with one line per
record: a *unit* name (a DAG node key) and its metadata (``status``,
``sha256``, ``error``).  Records are written with flush+fsync before a
unit counts as committed, the latest record per unit wins on load, and
a torn final line (a writer killed mid-append) is ignored — so the
store is readable after a kill at any instant and a committed unit is
never lost.  Several processes may append to the same file; a reader
:meth:`~RunJournal.refresh`-es to see the others' records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.obs.log import get_logger
from repro.obs.metrics import CounterSet

log = get_logger("pipeline.journal")


@dataclass
class JournalStats(CounterSet):
    """Counters for one journal instance's lifetime (``journal.*``)."""

    PREFIX = "journal"

    amended: int = 0  #: records this instance appended


class RunJournal:
    """Append-only record store for one logical run.

    ``resume=False`` (a fresh run) truncates any stale journal at the
    same path; ``resume=True`` loads it and keeps appending.
    """

    def __init__(self, path: Union[str, Path], *, resume: bool = False):
        self.path = Path(path)
        self.resume = resume
        self.stats = JournalStats()
        self._meta: dict = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            self._load()
        self._fh = open(self.path, "a" if resume else "w", encoding="utf-8")

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    unit = entry["unit"]
                except (ValueError, KeyError, TypeError):
                    # torn tail line from a killed writer: the unit was
                    # not committed, so it is simply redone
                    continue
                # latest record wins: a later amend replaces the metadata
                self._meta[unit] = entry.get("meta")

    def refresh(self) -> None:
        """Re-read the file, folding in records other processes appended.

        The cross-process primitive behind shared DAG state stores: two
        ``repro dag run`` processes append to the same journal (O_APPEND
        writes of whole lines), and a reader refreshes to observe the
        other writer's committed units.  Torn tails are skipped exactly
        as on load.
        """
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------

    def meta(self, unit: str) -> Optional[dict]:
        """The latest metadata committed with ``unit`` (None when bare)."""
        return self._meta.get(unit)

    def metas(self) -> dict:
        """Snapshot of every unit's latest metadata (unit -> meta|None)."""
        return dict(self._meta)

    def amend(self, unit: str, **meta) -> None:
        """Commit a record for ``unit`` durably (flush + fsync).

        The store stays append-only and recovery takes the latest record
        per unit, so a unit's state can change over a run's lifetime —
        the DAG uses this for ``failed`` → ``done`` transitions when a
        retry or re-run succeeds.
        """
        entry = {"unit": unit}
        if meta:
            entry["meta"] = meta
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._meta[unit] = meta or None
        self.stats.bump("amended")
        log.debug("journal amended: %s", unit)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunJournal(path={str(self.path)!r}, resume={self.resume}, "
            f"units={len(self._meta)})"
        )
