"""Lightweight MPI profiling: find the most computationally demanding task.

The paper identifies the trace-worthy task "using a lightweight MPI
profiling library based on the PSiNSTracer package" (§IV): a cheap run
that measures per-task computation time without full tracing.  Our
equivalent weighs each rank's compute events by nominal per-operation
costs — no cache simulation, no address streams — and ranks tasks by that
estimate.  Only the *ordering* matters downstream (which rank gets
traced), so nominal costs suffice, exactly as wall-clock on the base
system suffices in the real pipeline.

Ranks of one equivalence class run identical programs, so given the
classes each class's blocks are priced once, on one program, and every
rank's compute rows are summed from the job's event table in event
order — the same floats as pricing each rank's own program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.instrument.program import BasicBlockSpec, Program
from repro.simmpi.events import COMPUTE
from repro.simmpi.runtime import Job

#: Nominal base-system costs used only for ranking tasks.
_NOMINAL_MEM_NS = 4.0
_NOMINAL_FLOP_NS = 0.5


def _block_iteration_cost_ns(block: BasicBlockSpec) -> float:
    mem = block.mem_accesses_per_iteration
    fp = sum(f.ops_per_iteration for f in block.fp_instructions)
    return mem * _NOMINAL_MEM_NS + fp * _NOMINAL_FLOP_NS


def _rank_totals(job: Job, values: np.ndarray) -> np.ndarray:
    """Per-rank sums of per-compute-row ``values``, each rank's added in
    event order from 0.0 (the floats a sequential loop gives)."""
    ranks = job.row_ranks[job.rows[:, 0] == COMPUTE]
    position = np.arange(len(ranks)) - np.searchsorted(ranks, ranks)
    order = np.argsort(position, kind="stable")
    totals = np.zeros(job.n_ranks)
    if not len(ranks):
        return totals
    bounds = np.searchsorted(position[order], np.arange(position.max() + 2))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        step = order[lo:hi]  # the j-th compute row of every rank that has one
        totals[ranks[step]] += values[step]
    return totals


@dataclass
class LightweightProfile:
    """Per-rank computation-time estimates from the profiling run."""

    app: str
    n_ranks: int
    compute_times_s: Dict[int, float]

    def slowest_rank(self) -> int:
        """Rank with the largest estimated computation time.

        Ties break toward the lower rank for determinism.
        """
        return max(
            self.compute_times_s,
            key=lambda r: (self.compute_times_s[r], -r),
        )

    def load_imbalance(self) -> float:
        """max/mean computation-time ratio (1.0 == perfectly balanced)."""
        times = list(self.compute_times_s.values())
        mean = sum(times) / len(times)
        return max(times) / mean if mean > 0 else 1.0


def profile_job(
    job: Job,
    program_for_rank: Callable[[int], Program],
    equivalence_classes: Optional[Sequence[Sequence[int]]] = None,
) -> LightweightProfile:
    """Estimate per-rank computation time for a job.

    Parameters
    ----------
    job:
        The recorded job.
    program_for_rank:
        Maps a rank to its program (for per-iteration block weights).
    equivalence_classes:
        Optional partition of the ranks into identical-program groups
        (the app's decomposition classes): each class's blocks are then
        priced once, on its lowest rank's program.  Without it every
        rank's own program prices its blocks.
    """
    n = job.n_ranks
    classes = (
        [[r] for r in range(n)] if equivalence_classes is None
        else equivalence_classes
    )
    if sorted(r for cls in classes for r in cls) != list(range(n)):
        raise ValueError("equivalence classes must partition all ranks")
    group_of_rank = np.empty(n, dtype=np.int64)
    for g, cls in enumerate(classes):
        group_of_rank[list(cls)] = g
    programs: Dict[int, Program] = {}

    def price(group: int, block_id: int) -> float:
        if group not in programs:
            programs[group] = program_for_rank(min(classes[group]))
        return _block_iteration_cost_ns(programs[group].block(block_id))

    totals_ns = _rank_totals(job, job.compute_costs(group_of_rank, price))
    return LightweightProfile(
        app=job.app,
        n_ranks=n,
        compute_times_s=dict(enumerate((totals_ns * 1e-9).tolist())),
    )
