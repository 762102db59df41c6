"""Element-wise comparison of two trace files.

Used to evaluate extrapolation fidelity directly (paper §IV: "every
extrapolated element within all of the influential instructions had an
absolute relative error of less than 20%") — independent of the
end-to-end runtime-prediction comparison of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.trace.tracefile import TraceFile

#: Relative denominators below this are treated as "both sides zero-ish";
#: the element contributes zero error if the absolute difference is also
#: below it.
_ZERO_EPS = 1e-12


@dataclass
class ElementError:
    """Error of one feature element of one instruction."""

    block_id: int
    instr_id: int
    field: str
    expected: float
    actual: float

    @property
    def abs_rel_error(self) -> float:
        denom = abs(self.expected)
        if denom < _ZERO_EPS:
            return 0.0 if abs(self.actual) < _ZERO_EPS else np.inf
        return abs(self.actual - self.expected) / denom


@dataclass
class TraceDiff:
    """All element errors between a reference and a candidate trace."""

    reference: TraceFile
    candidate: TraceFile
    errors: List[ElementError] = field(default_factory=list)

    def max_abs_rel_error(self) -> float:
        if not self.errors:
            return 0.0
        return max(e.abs_rel_error for e in self.errors)

    def median_abs_rel_error(self) -> float:
        if not self.errors:
            return 0.0
        return float(np.median([e.abs_rel_error for e in self.errors]))

    def worst(self, n: int = 10) -> List[ElementError]:
        return sorted(self.errors, key=lambda e: -e.abs_rel_error)[:n]


def compare_traces(
    reference: TraceFile,
    candidate: TraceFile,
    *,
    block_ids: Optional[List[int]] = None,
    fields: Optional[List[str]] = None,
) -> TraceDiff:
    """Compute per-element absolute relative errors.

    Parameters
    ----------
    reference, candidate:
        Traces with identical schemas and block/instruction structure
        (extrapolation preserves structure, so collected-vs-extrapolated
        comparisons always satisfy this).
    block_ids:
        Restrict to these blocks (e.g. the influential ones).
    fields:
        Restrict to these feature fields.
    """
    if reference.schema.fields != candidate.schema.fields:
        raise ValueError("traces have different schemas")
    schema = reference.schema
    wanted_fields = fields or list(schema.fields)
    field_idx = [(f, schema.index(f)) for f in wanted_fields]
    diff = TraceDiff(reference=reference, candidate=candidate)
    blocks = block_ids if block_ids is not None else sorted(reference.blocks)
    for bid in blocks:
        if bid not in candidate.blocks:
            raise KeyError(f"candidate trace missing block {bid}")
        ref_block = reference.blocks[bid]
        cand_block = candidate.blocks[bid]
        if ref_block.n_instructions != cand_block.n_instructions:
            raise ValueError(
                f"block {bid}: instruction count mismatch "
                f"({ref_block.n_instructions} vs {cand_block.n_instructions})"
            )
        for ref_ins, cand_ins in zip(ref_block.instructions, cand_block.instructions):
            for fname, j in field_idx:
                diff.errors.append(
                    ElementError(
                        block_id=bid,
                        instr_id=ref_ins.instr_id,
                        field=fname,
                        expected=float(ref_ins.features[j]),
                        actual=float(cand_ins.features[j]),
                    )
                )
    return diff
