"""On-the-fly signature collection: program -> trace file.

Drives an :class:`~repro.instrument.pebil.InstrumentedProgram` and turns
the observations into a :class:`~repro.trace.tracefile.TraceFile` of
per-instruction feature vectors — the application-signature half of the
PMaC framework's inputs (Fig. 2).  Counts are full-execution magnitudes
(sampled counts rescaled analytically); hit rates and working sets come
from the measured sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from repro.cache.engine import ENGINE_NAMES, get_engine
from repro.cache.hierarchy import CacheHierarchy
from repro.instrument.pebil import InstrumentedProgram, InstrumentationReport
from repro.instrument.program import Program
from repro.obs.trace import span
from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord
from repro.trace.tracefile import TraceFile
from repro.util.rng import RngStream


@dataclass(frozen=True)
class CollectorConfig:
    """Knobs for signature collection.

    ``sample_accesses`` bounds per-block simulated accesses per pass
    (the trace-size/time mitigation of §I); ``chunk`` is the stream
    chunk length.  ``engine`` selects how hit rates are obtained:
    ``"exact"`` replays every address through the LRU simulator,
    ``"reuse"`` evaluates reuse-distance profiles analytically
    (see :mod:`repro.cache.engine`).  The engine is part of collection
    identity, so it participates in signature-cache keys.
    """

    sample_accesses: int = 200_000
    max_sample_accesses: int = 3_000_000
    chunk: int = 1 << 16
    engine: str = "exact"

    def __post_init__(self):
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown cache engine {self.engine!r}; "
                f"known engines: {ENGINE_NAMES}"
            )


def collect_trace(
    program: Program,
    hierarchy: CacheHierarchy,
    *,
    app: str,
    rank: int,
    n_ranks: int,
    config: Optional[CollectorConfig] = None,
    rng: Optional[RngStream] = None,
    report: Optional[InstrumentationReport] = None,
) -> TraceFile:
    """Collect one MPI task's trace file against a target hierarchy.

    Parameters
    ----------
    program:
        The task's laid-out program.
    hierarchy:
        Target-system hierarchy to simulate hit rates against.
    app, rank, n_ranks:
        Trace metadata.
    report:
        Pre-computed instrumentation report; if omitted the program is
        instrumented and run here.
    """
    config = config or CollectorConfig()
    if report is None:
        instrumented = InstrumentedProgram(
            program,
            hierarchy,
            sample_accesses=config.sample_accesses,
            max_sample_accesses=config.max_sample_accesses,
            chunk=config.chunk,
        )
        engine = get_engine(config.engine)
        with span(
            "cachesim.run",
            app=app,
            rank=rank,
            n_ranks=n_ranks,
            engine=config.engine,
        ):
            report = engine.run(instrumented, rng)
    schema = FeatureSchema(hierarchy.level_names)
    records = []
    for block in program.blocks:
        obs = report.observation(block.block_id)
        instructions = []
        hit_rates = obs.cumulative_hit_rates() if obs.accesses.size else None
        for i, mem in enumerate(block.mem_instructions):
            full_count = float(block.exec_count * mem.per_iteration)
            values = {
                # exec_count is the containing block's dynamic iteration
                # count (uniform across the block's instructions); the
                # instruction's own dynamic access count is mem_ops.
                "exec_count": float(block.exec_count),
                "mem_ops": full_count,
                "loads": full_count if mem.kind == "load" else 0.0,
                "stores": full_count if mem.kind == "store" else 0.0,
                "ref_bytes": float(mem.pattern.element_size),
                "working_set_bytes": float(mem.pattern.footprint_bytes()),
            }
            vec = schema.vector_from_dict(values)
            if hit_rates is not None and obs.accesses[i] > 0:
                vec[schema.hit_rate_slice] = hit_rates[i]
            instructions.append(
                InstructionRecord(instr_id=len(instructions), kind=mem.kind, features=vec)
            )
        for fp in block.fp_instructions:
            values = {
                "exec_count": float(block.exec_count),
                "ilp": fp.ilp,
                "dep_chain": fp.dep_chain,
            }
            for kind, per_iter in fp.op_counts.items():
                values[kind] = per_iter * block.exec_count
            vec = schema.vector_from_dict(values)
            instructions.append(
                InstructionRecord(instr_id=len(instructions), kind="fp", features=vec)
            )
        records.append(
            BasicBlockRecord(block.block_id, block.location, instructions)
        )
    return TraceFile.from_blocks(
        records,
        app=app,
        rank=rank,
        n_ranks=n_ranks,
        target=hierarchy.name,
        schema=schema,
    )
