"""Per-instruction and per-basic-block trace records.

The paper's trace file contains, per basic block: source location, fp op
counts and types, memory reference counts/kinds/sizes, expected target
cache hit rates, and (for extrapolation) per-instruction detail.  These
records mirror that structure.  A :class:`~repro.trace.tracefile.TraceFile`
keeps their contents as columns: it packs records with
:meth:`~repro.trace.tracefile.TraceFile.from_blocks` and hands them back
from :attr:`~repro.trace.tracefile.TraceFile.blocks` as read-only views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.trace.features import FeatureSchema


@dataclass(frozen=True)
class SourceLocation:
    """Where a basic block lives in the (synthetic) source and binary."""

    function: str
    file: str = "<synthetic>"
    line: int = 0
    address: int = 0

    def __str__(self) -> str:
        return f"{self.function} @ {self.file}:{self.line}"


@dataclass(frozen=True)
class InstructionRecord:
    """One static instruction's measured behavior at one core count.

    Parameters
    ----------
    instr_id:
        Index of the instruction within its basic block.
    kind:
        Coarse class: ``"load"``, ``"store"`` or ``"fp"``.
    features:
        Feature vector following the trace file's schema; in a view, a
        read-only row of the trace's feature matrix.
    """

    instr_id: int
    kind: str
    features: np.ndarray

    def feature(self, schema: FeatureSchema, name: str) -> float:
        return float(self.features[schema.index(name)])


@dataclass(frozen=True)
class BasicBlockRecord:
    """One basic block's records: location + per-instruction features."""

    block_id: int
    location: SourceLocation
    instructions: Sequence[InstructionRecord] = ()

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    def feature_matrix(self) -> np.ndarray:
        """Stack instruction vectors into ``(n_instr, n_features)``."""
        if not self.instructions:
            return np.zeros((0, 0))
        return np.stack([ins.features for ins in self.instructions])

    def aggregate(self, schema: FeatureSchema) -> Dict[str, float]:
        """Block-level totals/averages.

        Counts are summed over instructions; hit rates, working set,
        ref size, ilp and dep_chain are weighted by each instruction's
        memory ops (falling back to exec count for non-memory fields) —
        the weighting the paper uses when deciding influence.
        """
        if not self.instructions:
            return {name: 0.0 for name in schema.fields}
        mat = self.feature_matrix()
        out: Dict[str, float] = {}
        mem_ops = mat[:, schema.index("mem_ops")]
        exec_count = mat[:, schema.index("exec_count")]
        mem_weight = mem_ops if mem_ops.sum() > 0 else exec_count
        exec_weight = exec_count if exec_count.sum() > 0 else np.ones(len(mat))
        for j, name in enumerate(schema.fields):
            col = mat[:, j]
            if schema.is_count_field(name):
                out[name] = float(col.sum())
            elif schema.is_rate_field(name) or name == "ref_bytes":
                w = mem_weight if mem_weight.sum() > 0 else exec_weight
                out[name] = float(np.average(col, weights=np.maximum(w, 1e-12)))
            elif name == "working_set_bytes":
                out[name] = float(col.sum())
            else:  # ilp, dep_chain: execution-weighted averages
                out[name] = float(
                    np.average(col, weights=np.maximum(exec_weight, 1e-12))
                )
        return out

    def memory_ops(self, schema: FeatureSchema) -> float:
        """Total dynamic memory references in the block."""
        if not self.instructions:
            return 0.0
        return float(self.feature_matrix()[:, schema.index("mem_ops")].sum())

    def fp_ops(self, schema: FeatureSchema) -> float:
        """Total dynamic floating-point ops in the block."""
        if not self.instructions:
            return 0.0
        mat = self.feature_matrix()
        cols = [schema.index(k) for k in ("fp_add", "fp_mul", "fp_fma", "fp_div")]
        return float(mat[:, cols].sum())
