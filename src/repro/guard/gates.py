"""Per-element fit quality gates.

Complementary signals on a fitted extrapolation:

- **residual gate** — worst relative training residual of each
  element's selected form, one array pass over the fit matrices; a
  form that cannot even reproduce its training points will not
  extrapolate.  Advisory.
- **cross-validation gate** — leave-last-out held-out error via
  :mod:`repro.core.crossval`, itself one batched refit; the
  extrapolation-direction confidence signal the paper lacks.
  Advisory; also yields the ``trust_fraction`` surfaced in the CLI
  summary and run manifest.
- **fitting spot check** — refit a keyed-RNG sample of
  ``(block, instr)`` pairs with the scalar oracle
  (:func:`repro.core.extrapolate.reference_matrices`) and compare the
  synthesized vectors against the batched output.  The two agree to
  ~1e-9 relative on valid inputs, so any disagreement beyond tolerance
  marks a genuine anomaly: the element is flagged and the oracle's
  vector is the fallback.  This is the one gate whose flags *act*
  (they cannot fire on clean inputs, so acting preserves the
  clean-run bit-identity invariant).
- **cache-engine spot check** — when collection runs the analytical
  ``reuse`` cache engine, re-simulate a keyed-RNG sample of blocks
  *exactly* on a truncated stream and compare per-level aggregate hit
  rates against the reuse model's evaluation of the identical stream.
  The tolerance covers the model's documented approximation error
  (DESIGN.md §7.8), so a flag marks genuine divergence; the engine
  refuses rather than return silently wrong rates.

Advisory flags (``warn``) are recorded in the
:class:`~repro.guard.degrade.DegradationReport` but never alter output
and never refuse — with three training points, statistical gates flag
clean data too (see DESIGN.md §7.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.canonical import CanonicalForm
from repro.core.crossval import cross_validate_traces
from repro.core.extrapolate import reference_matrices
from repro.core.fitting import BatchedFitReport
from repro.trace.tracefile import TraceFile
from repro.util.rng import stream


@dataclass(frozen=True)
class GateFlag:
    """One element flagged by one quality gate."""

    gate: str  #: "residual" | "crossval" | "spot-check"
    block_id: int
    instr_id: int
    feature: str
    score: float  #: the gate's error measure for this element
    threshold: float  #: the limit it exceeded

    def to_dict(self) -> dict:
        return {
            "gate": self.gate,
            "block_id": self.block_id,
            "instr_id": self.instr_id,
            "feature": self.feature,
            "score": self.score,
            "threshold": self.threshold,
        }


def residual_gate(
    report: BatchedFitReport, threshold: float
) -> List[GateFlag]:
    """Flag elements whose selected form misses its own training data."""
    batch, schema = report.batch, report.schema
    # (n_forms, n_rows, n_counts) -> per-row selected-form residuals
    preds = batch.predict_all_forms(batch.x)
    selected = preds[batch.order[:, 0], np.arange(batch.n_rows), :]
    denom = np.maximum(np.abs(batch.Y), 1e-12)
    worst = np.max(np.abs(selected - batch.Y) / denom, axis=1)
    flags: List[GateFlag] = []
    for row in np.nonzero(worst > threshold)[0]:
        pair = report.pair_keys[row // schema.n_features]
        flags.append(
            GateFlag(
                gate="residual",
                block_id=pair[0],
                instr_id=pair[1],
                feature=schema.fields[row % schema.n_features],
                score=float(worst[row]),
                threshold=threshold,
            )
        )
    return flags


@dataclass
class CrossvalOutcome:
    """Leave-one-out gate result: flags plus the trust summary."""

    trust_fraction: float
    median_error: float
    n_elements: int
    flags: List[GateFlag] = field(default_factory=list)


def crossval_gate(
    traces: Sequence[TraceFile],
    threshold: float,
    *,
    forms: Sequence[CanonicalForm],
) -> Optional[CrossvalOutcome]:
    """Leave-last-out confidence gate; ``None`` with < 3 traces."""
    if len(traces) < 3:
        return None
    report = cross_validate_traces(traces, forms=forms)
    outcome = CrossvalOutcome(
        trust_fraction=report.trust_fraction(threshold),
        median_error=report.median_error(),
        n_elements=len(report.elements),
    )
    for element in report.flagged(threshold):
        outcome.flags.append(
            GateFlag(
                gate="crossval",
                block_id=element.block_id,
                instr_id=element.instr_id,
                feature=element.feature,
                score=element.held_out_error,
                threshold=threshold,
            )
        )
    return outcome


#: fraction of (block, instr) pairs spot-checked against the scalar
#: oracle
SPOT_CHECK_FRACTION = 0.05
#: spot-check at least this many pairs (when the trace has them)
SPOT_CHECK_MIN = 4
#: relative tolerance beyond which the batch path and the oracle
#: "disagree"; they agree to ~1e-9 on clean inputs, so 1e-6 never fires
#: there
SPOT_CHECK_RTOL = 1e-6


@dataclass
class SpotCheckOutcome:
    """Batch-vs-oracle comparison result over a keyed-RNG pair sample."""

    checked_pairs: List[Tuple[int, int]] = field(default_factory=list)
    flags: List[GateFlag] = field(default_factory=list)
    #: oracle vectors per disagreeing (target, pair) — the fallback
    reference: Dict[Tuple[int, Tuple[int, int]], np.ndarray] = field(
        default_factory=dict
    )


def spot_check_gate(
    report: BatchedFitReport,
    synthesized: Dict[int, np.ndarray],
    *,
    forms: Sequence[CanonicalForm],
    rate_trust_factor: float,
    seed_tokens: Sequence = (),
) -> SpotCheckOutcome:
    """Compare the batched output with the scalar oracle on a sample.

    ``synthesized`` maps each target count to the batched feature
    matrix, one row per entry of ``report.pair_keys``.  The pair sample
    is drawn from the keyed stream ``("guard", "spotcheck",
    *seed_tokens)``, so identical runs check identical pairs.
    """
    outcome = SpotCheckOutcome()
    n_pairs = len(report.pair_keys)
    if n_pairs == 0:
        return outcome
    want = max(SPOT_CHECK_MIN, int(np.ceil(SPOT_CHECK_FRACTION * n_pairs)))
    want = min(want, n_pairs)
    rng = stream("guard", "spotcheck", *seed_tokens, n_pairs)
    sample = sorted(
        int(p) for p in rng.choice(n_pairs, size=want, replace=False)
    )
    outcome.checked_pairs = [report.pair_keys[p] for p in sample]
    targets = list(synthesized)
    # (n_sample, n_targets, n_features), pair-major like the flags
    ref = reference_matrices(
        report, sample, targets,
        forms=forms, rate_trust_factor=rate_trust_factor,
    ).transpose(1, 0, 2)
    actual = np.stack([synthesized[t][sample] for t in targets], axis=1)
    close = np.isclose(actual, ref, rtol=SPOT_CHECK_RTOL, atol=1e-12)
    for i, t, j in zip(*np.nonzero(~close)):
        pair, target = outcome.checked_pairs[i], targets[t]
        outcome.reference[(target, pair)] = ref[i, t]
        denom = max(abs(float(ref[i, t, j])), 1e-12)
        outcome.flags.append(
            GateFlag(
                gate="spot-check",
                block_id=pair[0],
                instr_id=pair[1],
                feature=report.schema.fields[int(j)],
                score=abs(float(actual[i, t, j]) - float(ref[i, t, j])) / denom,
                threshold=SPOT_CHECK_RTOL,
            )
        )
    return outcome


#: fraction of profiled blocks the reuse cache engine re-simulates
#: exactly per run
CACHE_CHECK_FRACTION = 0.25
#: spot-check at least this many blocks (when the program has them)
CACHE_CHECK_MIN = 1
#: per-block access budget of one cross-engine spot check; both engines
#: evaluate the same truncated stream, so this bounds the exact-replay
#: cost the check pays
CACHE_CHECK_ACCESSES = 32_768
#: relative tolerance of the cross-engine check (on aggregate per-level
#: cumulative hit rates)
CACHE_CHECK_RTOL = 0.05
#: absolute tolerance floor of the cross-engine check; the reuse model's
#: set-mixing approximation can sit a few percent off the exact replay
#: at a capacity knee, which is approximation error, not divergence
#: (DESIGN.md §7.8)
CACHE_CHECK_ATOL = 0.05


@dataclass
class CacheCheckOutcome:
    """Cross-engine (reuse vs exact) comparison over sampled blocks."""

    checked_blocks: List[int] = field(default_factory=list)
    #: worst absolute per-level rate disagreement seen (flagged or not)
    max_abs_err: float = 0.0
    flags: List[GateFlag] = field(default_factory=list)


def cache_engine_spot_check(
    hierarchy,
    blocks: Sequence[Tuple[object, int]],
    *,
    chunk: int = 1 << 16,
    seed_tokens: Sequence = (),
) -> CacheCheckOutcome:
    """Compare the reuse model against an exact replay on sampled blocks.

    ``blocks`` holds ``(BasicBlockSpec, sampled_iterations)`` pairs the
    reuse engine evaluated.  For each keyed-RNG-sampled block the check
    materializes one *truncated* stream (at most
    :data:`CACHE_CHECK_ACCESSES` accesses, so the exact replay stays
    cheap), runs it through :class:`HierarchySimulator` — warm pass,
    then a filler sweep standing in for the *other* blocks' program-
    order traffic (the same ``cross_block_lines`` estimate the reuse
    engine charges first touches with), then a measured pass — and
    through the reuse profile math with the identical cross-block term,
    then compares aggregate per-level cumulative hit rates.  Both
    engines consume the identical addresses, so disagreement beyond
    ``CACHE_CHECK_ATOL + CACHE_CHECK_RTOL * exact`` is model
    divergence, not sampling noise.
    """
    from repro.cache import reuse as _reuse
    from repro.cache.simulator import HierarchySimulator
    from repro.memstream.generator import interleave_streams

    outcome = CacheCheckOutcome()
    if not blocks:
        return outcome
    want = max(
        CACHE_CHECK_MIN, int(np.ceil(CACHE_CHECK_FRACTION * len(blocks)))
    )
    want = min(want, len(blocks))
    rng = stream("guard", "cachesim", *seed_tokens, len(blocks))
    sample = sorted(
        int(i) for i in rng.choice(len(blocks), size=want, replace=False)
    )
    line_sizes = _reuse.line_sizes_of(hierarchy)
    full_streams = [
        (
            [m.pattern for m in block.mem_instructions],
            [m.per_iteration * iters for m in block.mem_instructions],
        )
        for block, iters in blocks
    ]
    extras = {
        ls: _reuse.cross_block_lines(full_streams, ls) for ls in line_sizes
    }
    # filler sweep emulating cross-block eviction between warm and
    # measure; eviction saturates at cache capacity, so cap its length
    fill_stride = min(line_sizes)
    fill_cap = 2 * max(g.size_bytes for g in hierarchy.levels)
    fill_base = max(
        int(p.base) + int(p.footprint_bytes())
        for patterns, _ in full_streams
        for p in patterns
    )
    fill_base = -(-fill_base // fill_stride) * fill_stride
    for i in sample:
        block, iters = blocks[i]
        per_iter = max(1, block.mem_accesses_per_iteration)
        check_iters = max(
            1, min(int(iters), CACHE_CHECK_ACCESSES // per_iter)
        )
        patterns = [m.pattern for m in block.mem_instructions]
        counts = [m.per_iteration * check_iters for m in block.mem_instructions]
        skey = _reuse.stream_key(patterns, counts, chunk)
        idx_parts, addr_parts = [], []
        for instr_idx, addrs in interleave_streams(
            patterns, counts, _reuse.profiling_rng(skey), chunk=chunk
        ):
            idx_parts.append(instr_idx)
            addr_parts.append(addrs)
        if not addr_parts:
            continue
        instr_idx = np.concatenate(idx_parts)
        addresses = np.concatenate(addr_parts)
        block_extras = {ls: float(extras[ls][i]) for ls in line_sizes}
        fill_bytes = min(
            fill_cap,
            int(max(block_extras[ls] * ls for ls in line_sizes)),
        )
        sim = HierarchySimulator(hierarchy)
        sim.process(addresses)  # warm to steady state on the same stream
        if fill_bytes > 0:
            sim.process(
                fill_base
                + np.arange(fill_bytes // fill_stride, dtype=np.int64)
                * fill_stride
            )
        sim.clear_counters()
        sim.process(addresses)
        exact = sim.result().cumulative_hit_rates()
        moduli = _reuse.congruence_moduli_for(
            patterns, [g.n_sets for g in hierarchy.levels]
        )
        profiles = {
            ls: _reuse.profile_stream(
                instr_idx, addresses, len(patterns), ls, moduli=moduli
            )
            for ls in line_sizes
        }
        approx = _reuse.aggregate_rates(profiles, hierarchy, block_extras)
        err = np.abs(approx - exact)
        tol = CACHE_CHECK_ATOL + CACHE_CHECK_RTOL * np.abs(exact)
        outcome.checked_blocks.append(block.block_id)
        outcome.max_abs_err = max(outcome.max_abs_err, float(err.max()))
        for j in np.flatnonzero(err > tol):
            outcome.flags.append(
                GateFlag(
                    gate="cache-engine",
                    block_id=block.block_id,
                    instr_id=-1,  # aggregate over the block's instructions
                    feature=f"hit_rate:{hierarchy.levels[int(j)].name}",
                    score=float(err[j]),
                    threshold=float(tol[j]),
                )
            )
    return outcome
