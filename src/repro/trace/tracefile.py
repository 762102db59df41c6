"""Trace files: one MPI task's signature at one core count.

Supports two serializations:

- **NPZ** — compact columnar storage (one feature matrix + id columns),
  the format the pipeline uses.
- **JSONL** — one JSON object per basic block, human-inspectable, used in
  examples and for debugging.

The two round-trip identically; the test suite checks this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, Union

import numpy as np

from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation

_FORMAT_VERSION = 1


@dataclass
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
    blocks:
        Basic-block records keyed by block id.
    extrapolated:
        True if this trace was synthesized by extrapolation rather than
        collected.
    """

    app: str
    rank: int
    n_ranks: int
    target: str
    schema: FeatureSchema
    blocks: Dict[int, BasicBlockRecord] = field(default_factory=dict)
    extrapolated: bool = False

    # ------------------------------------------------------------------
    # construction helpers

    def add_block(self, block: BasicBlockRecord) -> None:
        if block.block_id in self.blocks:
            raise ValueError(f"duplicate block id {block.block_id}")
        self.blocks[block.block_id] = block

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_instructions(self) -> int:
        return sum(b.n_instructions for b in self.blocks.values())

    def sorted_blocks(self) -> List[BasicBlockRecord]:
        return [self.blocks[k] for k in sorted(self.blocks)]

    def pair_keys(self) -> List[tuple]:
        """``(block_id, instr_index)`` keys in canonical (sorted) order.

        The instruction *index* within its block (not ``instr_id``)
        matches the pair addressing used by the fitting engines and the
        guard subsystem.
        """
        return [
            (block.block_id, k)
            for block in self.sorted_blocks()
            for k in range(block.n_instructions)
        ]

    def stacked_features(self) -> np.ndarray:
        """All instruction feature vectors as one (n_pairs, n_features)
        matrix, rows in :meth:`pair_keys` order.

        Raises ``ValueError`` when any instruction's vector width
        disagrees with the schema — callers that must not crash on
        malformed traces (the guard validators) check widths first.
        """
        rows = [
            np.asarray(ins.features, dtype=np.float64)
            for block in self.sorted_blocks()
            for ins in block.instructions
        ]
        if not rows:
            return np.zeros((0, self.schema.n_features))
        matrix = np.stack(rows)
        if matrix.shape[1] != self.schema.n_features:
            raise ValueError(
                f"feature rows have {matrix.shape[1]} columns, schema "
                f"expects {self.schema.n_features}"
            )
        return matrix

    def total_memory_ops(self) -> float:
        return sum(b.memory_ops(self.schema) for b in self.blocks.values())

    def total_fp_ops(self) -> float:
        return sum(b.fp_ops(self.schema) for b in self.blocks.values())

    # ------------------------------------------------------------------
    # NPZ serialization

    def save_npz(self, path: Union[str, Path, BinaryIO]) -> None:
        """Write the trace as a columnar .npz file (path or binary file)."""
        block_ids: List[int] = []
        instr_ids: List[int] = []
        kinds: List[str] = []
        rows: List[np.ndarray] = []
        meta_blocks = {}
        for block in self.sorted_blocks():
            meta_blocks[str(block.block_id)] = {
                "function": block.location.function,
                "file": block.location.file,
                "line": block.location.line,
                "address": block.location.address,
            }
            for ins in block.instructions:
                block_ids.append(block.block_id)
                instr_ids.append(ins.instr_id)
                kinds.append(ins.kind)
                rows.append(ins.features)
        features = (
            np.stack(rows)
            if rows
            else np.zeros((0, self.schema.n_features))
        )
        meta = {
            "version": _FORMAT_VERSION,
            "app": self.app,
            "rank": self.rank,
            "n_ranks": self.n_ranks,
            "target": self.target,
            "level_names": list(self.schema.level_names),
            "extrapolated": self.extrapolated,
            "blocks": meta_blocks,
        }
        np.savez_compressed(
            path,
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            block_ids=np.asarray(block_ids, dtype=np.int64),
            instr_ids=np.asarray(instr_ids, dtype=np.int64),
            kinds=np.asarray(kinds, dtype="U8"),
            features=features,
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
            schema = FeatureSchema(meta["level_names"])
            trace = cls(
                app=meta["app"],
                rank=int(meta["rank"]),
                n_ranks=int(meta["n_ranks"]),
                target=meta["target"],
                schema=schema,
                extrapolated=bool(meta["extrapolated"]),
            )
            block_meta = meta["blocks"]
            block_ids = data["block_ids"]
            instr_ids = data["instr_ids"]
            kinds = data["kinds"]
            features = data["features"]
            for bid_str, info in block_meta.items():
                bid = int(bid_str)
                trace.add_block(
                    BasicBlockRecord(
                        block_id=bid,
                        location=SourceLocation(
                            function=info["function"],
                            file=info["file"],
                            line=int(info["line"]),
                            address=int(info["address"]),
                        ),
                    )
                )
            for bid, iid, kind, row in zip(block_ids, instr_ids, kinds, features):
                trace.blocks[int(bid)].instructions.append(
                    InstructionRecord(
                        instr_id=int(iid), kind=str(kind), features=row.copy()
                    )
                )
        return trace

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
            for block in self.sorted_blocks():
                obj = {
                    "block_id": block.block_id,
                    "function": block.location.function,
                    "file": block.location.file,
                    "line": block.location.line,
                    "address": block.location.address,
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
            schema = FeatureSchema(header["level_names"])
            trace = cls(
                app=header["app"],
                rank=int(header["rank"]),
                n_ranks=int(header["n_ranks"]),
                target=header["target"],
                schema=schema,
                extrapolated=bool(header["extrapolated"]),
            )
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                block = BasicBlockRecord(
                    block_id=int(obj["block_id"]),
                    location=SourceLocation(
                        function=obj["function"],
                        file=obj["file"],
                        line=int(obj["line"]),
                        address=int(obj["address"]),
                    ),
                )
                for ins in obj["instructions"]:
                    block.instructions.append(
                        InstructionRecord(
                            instr_id=int(ins["instr_id"]),
                            kind=str(ins["kind"]),
                            features=np.asarray(ins["features"], dtype=np.float64),
                        )
                    )
                trace.add_block(block)
        return trace
