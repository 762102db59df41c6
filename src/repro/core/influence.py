"""Influence filtering (§IV).

"This influence was determined by the ratio of memory operations the
instruction had to the total number of memory instructions and for those
instructions without memory operations, floating-point operations were
used.  The percentage deemed to have influence was anything over 0.1%."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.trace.tracefile import TraceFile

#: The paper's influence threshold: 0.1% of task-total operations.
DEFAULT_THRESHOLD = 0.001


@dataclass
class InfluenceReport:
    """Which instructions matter for the task's runtime."""

    threshold: float
    influential: List[Tuple[int, int]] = field(default_factory=list)
    total_instructions: int = 0

    def influential_set(self) -> Set[Tuple[int, int]]:
        return set(self.influential)

    @property
    def n_influential(self) -> int:
        return len(self.influential)

    def coverage(self) -> float:
        """Fraction of instructions deemed influential."""
        if self.total_instructions == 0:
            return 0.0
        return self.n_influential / self.total_instructions


def influential_instructions(
    trace: TraceFile, threshold: float = DEFAULT_THRESHOLD
) -> InfluenceReport:
    """Apply the paper's 0.1% influence rule to a trace.

    An instruction is influential if its memory-op share of the task's
    total memory ops exceeds ``threshold``; instructions with no memory
    ops are judged by their floating-point-op share instead.
    """
    schema = trace.schema
    mem_idx = schema.index("mem_ops")
    fp_idxs = [schema.index(k) for k in ("fp_add", "fp_mul", "fp_fma", "fp_div")]
    total_mem = trace.total_memory_ops()
    total_fp = trace.total_fp_ops()
    report = InfluenceReport(threshold=threshold)
    for block in trace.blocks.values():
        for ins in block.instructions:
            report.total_instructions += 1
            mem_ops = float(ins.features[mem_idx])
            if mem_ops > 0:
                ratio = mem_ops / total_mem if total_mem > 0 else 0.0
            else:
                fp_ops = float(sum(ins.features[j] for j in fp_idxs))
                ratio = fp_ops / total_fp if total_fp > 0 else 0.0
            if ratio > threshold:
                report.influential.append((block.block_id, ins.instr_id))
    return report
