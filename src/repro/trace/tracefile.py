"""Trace files: one MPI task's signature at one core count.

A trace holds its NPZ columns in memory: per instruction a block id, an
instruction id, a kind and one row of a float64 feature matrix, rows in
:meth:`TraceFile.pair_keys` order, plus one source location per block.
:attr:`TraceFile.blocks` reads them back as read-only record views.

Supports two serializations:

- **NPZ** — the columns as they are, the format the pipeline uses.
- **JSONL** — one JSON object per basic block, human-inspectable, used in
  examples and for debugging.

The two round-trip identically; the test suite checks this.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, Dict, Iterable, List, Mapping, Tuple, Union

import numpy as np

from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation

_FORMAT_VERSION = 1


@dataclass(eq=False)
class TraceFile:
    """Per-task trace: all basic blocks one MPI task executed.

    Parameters
    ----------
    app:
        Application name.
    rank:
        MPI rank the trace belongs to.
    n_ranks:
        Total core count of the run.
    target:
        Name of the target system whose hierarchy the hit rates were
        simulated against.
    schema:
        Feature schema (defines the hit-rate block width).
    locations:
        Source location of every block, keyed by block id, ascending.
    block_ids, instr_ids, kinds:
        Per-instruction id columns (int64, int64, ``U8``), block ids
        ascending; traces built by :meth:`with_features` share them.
    features:
        ``(n_instructions, n_features)`` float64 matrix, one row per
        instruction in :meth:`pair_keys` order — the only column code writes.
    extrapolated:
        True if this trace was synthesized by extrapolation rather than
        collected.
    """

    app: str
    rank: int
    n_ranks: int
    target: str
    schema: FeatureSchema
    locations: Mapping[int, SourceLocation]
    block_ids: np.ndarray
    instr_ids: np.ndarray
    kinds: np.ndarray
    features: np.ndarray
    extrapolated: bool = False

    def __post_init__(self):
        self.locations = dict(sorted(self.locations.items()))
        n = len(self.block_ids)
        if not (len(self.instr_ids) == len(self.kinds) == len(self.features) == n):
            raise ValueError("trace columns differ in length")
        if np.any(np.diff(self.block_ids) < 0):
            raise ValueError("trace rows are not in ascending block order")
        if not set(self.block_ids.tolist()) <= self.locations.keys():
            raise ValueError("trace rows name a block without a location")

    @classmethod
    def from_blocks(
        cls,
        blocks: Iterable[BasicBlockRecord],
        *,
        app: str,
        rank: int,
        n_ranks: int,
        target: str,
        schema: FeatureSchema,
        extrapolated: bool = False,
    ) -> "TraceFile":
        """Pack block records (in any order) into a trace's columns."""
        blocks = sorted(blocks, key=lambda b: b.block_id)
        for a, b in zip(blocks, blocks[1:]):
            if a.block_id == b.block_id:
                raise ValueError(f"duplicate block id {a.block_id}")
        rows = [(b.block_id, ins) for b in blocks for ins in b.instructions]
        features = (
            np.stack([np.asarray(ins.features, dtype=np.float64) for _, ins in rows])
            if rows
            else np.zeros((0, schema.n_features))
        )
        return cls(
            app=app,
            rank=rank,
            n_ranks=n_ranks,
            target=target,
            schema=schema,
            locations={b.block_id: b.location for b in blocks},
            block_ids=np.array([bid for bid, _ in rows], dtype=np.int64),
            instr_ids=np.array([ins.instr_id for _, ins in rows], dtype=np.int64),
            kinds=np.array([ins.kind for _, ins in rows], dtype="U8"),
            features=features,
            extrapolated=extrapolated,
        )

    def with_features(self, features: np.ndarray, **changes) -> "TraceFile":
        """This trace's blocks and instructions over another feature
        matrix; ``changes`` replace metadata (``rank``, ``n_ranks``,
        ``extrapolated``, ...).  The id columns are shared, not copied."""
        return dataclasses.replace(self, features=features, **changes)

    # ------------------------------------------------------------------
    # views

    @property
    def blocks(self) -> Mapping[int, BasicBlockRecord]:
        """Read-only views of every block by id, ascending, built on
        access: their features are read-only rows of :attr:`features`."""
        rows = self.features.view()
        rows.flags.writeable = False
        bids = list(self.locations)
        starts = np.searchsorted(self.block_ids, bids, side="left").tolist()
        ends = np.searchsorted(self.block_ids, bids, side="right").tolist()
        instr_ids, kinds = self.instr_ids.tolist(), self.kinds.tolist()
        return MappingProxyType({
            bid: BasicBlockRecord(
                block_id=bid,
                location=self.locations[bid],
                instructions=[
                    InstructionRecord(instr_ids[i], kinds[i], rows[i])
                    for i in range(lo, hi)
                ],
            )
            for bid, lo, hi in zip(bids, starts, ends)
        })

    @property
    def n_blocks(self) -> int:
        return len(self.locations)

    @property
    def n_instructions(self) -> int:
        return len(self.block_ids)

    def pair_keys(self) -> List[Tuple[int, int]]:
        """``(block_id, instr_index)`` of every row of :attr:`features`.

        The instruction *index* within its block (not ``instr_id``)
        matches the pair addressing used by the fitting engines and the
        guard subsystem.
        """
        starts = np.searchsorted(self.block_ids, self.block_ids, side="left")
        index = np.arange(len(self.block_ids)) - starts
        return list(zip(self.block_ids.tolist(), index.tolist()))

    def row(self, block_id: int, instr_index: int) -> int:
        """The row of :attr:`features` holding one ``(block, index)`` pair."""
        lo, hi = np.searchsorted(self.block_ids, [block_id, block_id + 1])
        if not 0 <= instr_index < hi - lo:
            raise KeyError(f"trace has no block {block_id} instruction {instr_index}")
        return int(lo) + instr_index

    def total_memory_ops(self) -> float:
        return sum(b.memory_ops(self.schema) for b in self.blocks.values())

    def total_fp_ops(self) -> float:
        return sum(b.fp_ops(self.schema) for b in self.blocks.values())

    # ------------------------------------------------------------------
    # NPZ serialization

    def save_npz(self, path: Union[str, Path, BinaryIO]) -> None:
        """Write the trace as a columnar .npz file (path or binary file)."""
        meta = {
            "version": _FORMAT_VERSION,
            "app": self.app,
            "rank": self.rank,
            "n_ranks": self.n_ranks,
            "target": self.target,
            "level_names": list(self.schema.level_names),
            "extrapolated": self.extrapolated,
            "blocks": {
                str(bid): dataclasses.asdict(loc)
                for bid, loc in self.locations.items()
            },
        }
        np.savez_compressed(
            path,
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            block_ids=self.block_ids,
            instr_ids=self.instr_ids,
            kinds=self.kinds,
            features=self.features,
        )

    @classmethod
    def load_npz(cls, path: Union[str, Path, BinaryIO]) -> "TraceFile":
        """Load a trace previously written by :meth:`save_npz`."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta.get("version") != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported trace format version {meta.get('version')!r}"
                )
            return cls(
                app=meta["app"],
                rank=int(meta["rank"]),
                n_ranks=int(meta["n_ranks"]),
                target=meta["target"],
                schema=FeatureSchema(meta["level_names"]),
                locations={
                    int(bid): _location(info)
                    for bid, info in meta["blocks"].items()
                },
                block_ids=data["block_ids"],
                instr_ids=data["instr_ids"],
                kinds=data["kinds"],
                features=data["features"],
                extrapolated=bool(meta["extrapolated"]),
            )

    # ------------------------------------------------------------------
    # JSONL serialization

    def save_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as newline-delimited JSON (header + blocks)."""
        with open(Path(path), "w", encoding="utf-8") as fh:
            header = {
                "version": _FORMAT_VERSION,
                "app": self.app,
                "rank": self.rank,
                "n_ranks": self.n_ranks,
                "target": self.target,
                "level_names": list(self.schema.level_names),
                "extrapolated": self.extrapolated,
            }
            fh.write(json.dumps({"header": header}) + "\n")
            for block in self.blocks.values():
                obj = {
                    "block_id": block.block_id,
                    **dataclasses.asdict(block.location),
                    "instructions": [
                        {
                            "instr_id": ins.instr_id,
                            "kind": ins.kind,
                            "features": [float(v) for v in ins.features],
                        }
                        for ins in block.instructions
                    ],
                }
                fh.write(json.dumps(obj) + "\n")

    @classmethod
    def load_jsonl(cls, path: Union[str, Path]) -> "TraceFile":
        """Load a trace previously written by :meth:`save_jsonl`."""
        with open(Path(path), "r", encoding="utf-8") as fh:
            first = json.loads(fh.readline())
            header = first.get("header")
            if header is None or header.get("version") != _FORMAT_VERSION:
                raise ValueError(f"bad trace header in {path}")
            blocks = [
                BasicBlockRecord(
                    block_id=int(obj["block_id"]),
                    location=_location(obj),
                    instructions=[
                        InstructionRecord(
                            instr_id=int(ins["instr_id"]),
                            kind=str(ins["kind"]),
                            features=np.asarray(ins["features"], dtype=np.float64),
                        )
                        for ins in obj["instructions"]
                    ],
                )
                for obj in (json.loads(line) for line in fh if line.strip())
            ]
        return cls.from_blocks(
            blocks,
            app=header["app"],
            rank=int(header["rank"]),
            n_ranks=int(header["n_ranks"]),
            target=header["target"],
            schema=FeatureSchema(header["level_names"]),
            extrapolated=bool(header["extrapolated"]),
        )


def _location(info: Dict) -> SourceLocation:
    return SourceLocation(
        function=info["function"],
        file=info["file"],
        line=int(info["line"]),
        address=int(info["address"]),
    )
