"""Reuse-distance profiles and analytical hit-rate evaluation.

The exact engine (:mod:`repro.cache.simulator`) replays every address
through LRU state — the collect stage's entire wall time.  This module
replaces the replay with profile math, following the PPT-Multicore line
of work (Chennupati et al., arXiv 2104.05102): profile the address
stream *once* into a compact reuse-distance histogram, then map that
histogram onto any :class:`~repro.cache.geometry.CacheGeometry`
analytically.  A Table II/III sweep over many geometries evaluates one
profile repeatedly instead of re-simulating the stream per geometry.

Model
-----
For each access, the *reuse time* ``rt`` is the number of intervening
accesses since the previous access to the same cache line, measured
circularly (first occurrences wrap around to the line's last occurrence,
which models the steady state the exact engine reaches with its warm-up
pass).  The expected number of **distinct** lines in a window of ``T``
accesses is the StatStack estimator

    ``f(T) = sum_{m=0}^{T-1} P(rt > m)``,

computed in O(n) from the reuse-time histogram; the expected stack
distance of an access is then ``D = f(rt)``.  Given ``D`` distinct
intervening lines, a set-associative LRU cache with ``S`` sets and
associativity ``A`` hits iff fewer than ``A`` of them fall in the
access's own set.  The ``D`` intervening lines are drawn from the
stream's ``W - 1`` other distinct lines, of which only the access's
set-mates can conflict: with the (contiguous-region) balanced mapping,
a set holds ``floor(W/S)`` or ``ceil(W/S)`` of the stream's lines, so
the number of same-set rivals seen is approximately
``Binomial(K, D / (W - 1))`` with ``K = occupancy - 1`` — the
set-size-swapped form of the hypergeometric draw.  This keeps the
classic sampled-set binomial behavior for ``W >> S * A`` while being
*exact* in the conflict-free regime (``ceil(W/S) <= A`` implies every
hit), where the independent-mapping binomial of PPT-Multicore
overpredicts conflict misses.  Fully associative levels are exact
(``hit iff D < A``).

Congruence refinement
---------------------
Set-sampling models assume intervening lines land on sets uniformly,
which stencils and power-of-two strides violate badly: a 4096-element
stencil offset is exactly 512 lines — congruent modulo any set count
that divides 512 — so its rivals *always* share the access's set and a
2-way cache thrashes where the binomial predicts free hits.  For
streams containing any deterministic pattern the profiler therefore
also measures, for every power-of-two modulus ``M`` up to
``MAX_CONGRUENCE_MODULUS``, the *congruent* reuse distance: the
expected number of distinct intervening lines congruent to the target
modulo ``M``, computed on each congruence class's own timeline with
the same StatStack machinery.  Evaluating a geometry with ``S`` sets
picks the largest stored modulus dividing ``S`` and asks directly
whether the ``A``-way set can hold the measured congruent rivals — the
deterministic conflict structure is observed, not assumed.  Streams
made of purely random patterns cannot carry systematic congruence, so
they skip the extra passes and keep the single-argsort profile cost.

First touches and cross-block eviction
--------------------------------------
A block's *first* access to each line has no preceding same-line access
inside the block's own stream; whether it hits depends on what survived
since the block's previous execution.  The exact engine runs blocks in
program order, so the surviving state was filtered through every
*other* block's traffic.  The profile therefore keeps first-touch
accesses out of the interior histograms and records them per
instruction as ``(first_counts, first_distances)``, where the distance
is the block's own circular wrap distance; evaluation adds the
caller-supplied ``extra_lines`` — the distinct lines the rest of the
program touches between two executions of this block — before asking
the occupancy model whether the line survived.  A single-block program
has ``extra_lines = 0`` and recovers the pure steady-state circular
model.

Hierarchy levels are evaluated *standalone* against the full
stream's profile and monotonized, which approximates exclusive
miss-stream filtering well for stationary streams (DESIGN.md §7.8
discusses the error sources and when to prefer ``--cache-engine exact``).

Everything is vectorized numpy: one stable argsort plus bincounts per
(stream, line size) profile, a dot product per (profile, geometry)
evaluation.  Profiles are content-addressed by the stream's *semantics*
(pattern reprs, counts, chunking, root seed) — deliberately independent
of the cache geometry — so one profile serves every geometry and every
hierarchy that shares a line size.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.obs.metrics import REGISTRY, CounterSet
from repro.util.rng import DEFAULT_ROOT_SEED, RngStream
from repro.util.store import Store

#: reuse times below this stay exact histogram bins; larger ones are
#: log-quantized so profile size stays bounded for multi-million-access
#: streams (hit probabilities vary slowly at large distances)
EXACT_BINS = 2048

#: log-quantization resolution above EXACT_BINS: bins per octave
BINS_PER_OCTAVE = 64

#: largest power-of-two modulus congruent reuse distances are measured
#: at; covers every set count in the named hierarchies, and any larger
#: power-of-two set count still divides into it conservatively
MAX_CONGRUENCE_MODULUS = 8192

#: the moduli a congruence-profiled stream measures (2, 4, ..., 8192)
CONGRUENCE_MODULI = tuple(
    2 ** k for k in range(1, MAX_CONGRUENCE_MODULUS.bit_length())
)


def congruence_moduli_for(
    patterns: Sequence, set_counts: Optional[Sequence[int]] = None
) -> Tuple[int, ...]:
    """Which congruence moduli a block's stream should be profiled at.

    Purely random patterns cannot produce systematic set congruence, so
    all-random blocks skip the per-modulus passes entirely (this is the
    common case for the synthetic sweep workloads and keeps profiling a
    single argsort).  Any deterministic pattern — strided, stencil,
    pointer chase — can alias power-of-two set indexing; with
    ``set_counts`` (the target levels' set counts) only the moduli
    evaluation will actually pick are measured — each costs a pass over
    the stream — while ``None`` measures the full ladder, serving any
    future geometry.  Profiles cached with fewer moduli are extended on
    demand by :func:`profiles_for`.
    """
    from repro.memstream.patterns import RandomPattern

    if all(isinstance(p, RandomPattern) for p in patterns):
        return ()
    if set_counts is None:
        return CONGRUENCE_MODULI
    needed = set()
    for s in set_counts:
        if s <= 1:
            continue
        fits = [m for m in CONGRUENCE_MODULI if s % m == 0]
        if fits:
            needed.add(max(fits))
    return tuple(sorted(needed))


def _line_runs(
    lines: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group a line stream's accesses by line, in access order.

    One stable argsort; returns ``(order, pos, starts, ends)`` where
    ``pos = order`` as int64 positions, and ``starts``/``ends`` bound
    each line's run inside the sorted view.
    """
    n = lines.shape[0]
    order = np.argsort(lines, kind="stable")
    s_lines = lines[order]
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(s_lines[1:], s_lines[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = n - 1
    return order, order.astype(np.int64), starts, ends


def _reuse_on_timeline(time, wrap, order, pos, starts, ends) -> np.ndarray:
    """Reuse gaps between same-line accesses on an arbitrary timeline.

    ``time[i]`` is access ``i``'s tick on its timeline (global position,
    or rank within a congruence class); ``wrap`` is the timeline's total
    tick count (scalar, or per-access array for class timelines).  The
    gap is the tick count strictly between consecutive same-line
    accesses; first occurrences wrap around to the line's last.
    """
    n = pos.shape[0]
    t = time[pos]
    rt_sorted = np.empty(n, dtype=np.int64)
    rt_sorted[1:] = t[1:] - t[:-1] - 1
    w = wrap[pos[starts]] if isinstance(wrap, np.ndarray) else wrap
    rt_sorted[starts] = t[starts] + w - t[ends] - 1
    rt = np.empty(n, dtype=np.int64)
    rt[order] = rt_sorted
    return rt


def _subset_runs(
    lines: np.ndarray, runs: Tuple, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derive :func:`_line_runs` of ``lines[keep]`` from the full runs.

    Dropping accesses preserves relative order, so the subsequence's
    sorted view is the full sorted view filtered to kept accesses —
    no second argsort over the (large-valued) line ids.
    """
    order, _pos, _starts, _ends = runs
    newpos = np.cumsum(keep) - 1
    order_kept = order[keep[order]]
    s_lines = lines[order_kept]
    m = s_lines.shape[0]
    order_sub = newpos[order_kept]
    new_run = np.empty(m, dtype=bool)
    new_run[0] = True
    np.not_equal(s_lines[1:], s_lines[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = m - 1
    return order_sub, order_sub.astype(np.int64), starts, ends


def reuse_times(lines: np.ndarray) -> Tuple[np.ndarray, int]:
    """Per-access circular reuse times of a line-id stream.

    ``rt[i]`` counts the accesses strictly between access ``i`` and the
    previous access to the same line; a line's first occurrence wraps
    around to its last (a line touched once in ``n`` accesses gets
    ``n - 1``), which models the steady state the exact engine reaches
    with its warm-up pass.  Returns ``(rt, n_distinct_lines)``.
    """
    n = lines.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    order, pos, starts, ends = _line_runs(lines)
    rt = _reuse_on_timeline(
        np.arange(n, dtype=np.int64), n, order, pos, starts, ends
    )
    return rt, int(starts.shape[0])


def class_reuse_times(
    lines: np.ndarray,
    modulus: int,
    runs: Optional[Tuple] = None,
) -> np.ndarray:
    """Circular reuse times on each congruence class's own timeline.

    ``rtc[i]`` counts the accesses to ``i``'s congruence class
    (``line mod modulus``) strictly between access ``i`` and the
    previous access to the same line.  Fed through
    :func:`expected_distances` this yields the expected number of
    distinct *congruent* intervening lines — for a cache whose set
    count is a multiple of ``modulus``, exactly the rivals that can
    evict the access's line.  ``runs`` lets callers share one
    :func:`_line_runs` result across moduli.
    """
    n = lines.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if runs is None:
        runs = _line_runs(lines)
    order, pos, starts, ends = runs
    cls = lines % modulus
    corder = np.argsort(cls, kind="stable")
    ccounts = np.bincount(cls, minlength=modulus)
    cstarts = np.cumsum(ccounts) - ccounts
    classrank = np.empty(n, dtype=np.int64)
    classrank[corder] = np.arange(n, dtype=np.int64) - cstarts[cls[corder]]
    classtotal = ccounts[cls]
    return _reuse_on_timeline(classrank, classtotal, order, pos, starts, ends)


def expected_distances(rt: np.ndarray) -> np.ndarray:
    """StatStack conversion: reuse times -> expected stack distances.

    ``f(T) = sum_{m<T} P(rt > m)`` is the expected number of distinct
    lines among ``T`` consecutive accesses of a stream with this
    reuse-time distribution; the estimate for an access with reuse time
    ``rt`` is ``f(rt)``.  Exact for deterministic sweeps (every ``rt``
    equal), unbiased for stationary mixes.
    """
    n = rt.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    hist = np.bincount(rt, minlength=n)
    tail = n - np.cumsum(hist)  # tail[m] = #{rt > m}
    f = np.empty(n + 1, dtype=np.float64)
    f[0] = 0.0
    np.cumsum(tail, out=f[1:])
    f /= n
    return f[rt]


def distance_moments(rt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """StatStack mean *and variance* of the distinct-line count.

    Same window estimator as :func:`expected_distances`, plus the
    independent-Bernoulli variance ``Var(T) = sum_{m<T} p_m (1-p_m)``
    with ``p_m = P(rt > m)``.  The variance distinguishes deterministic
    streams (every window identical, variance zero — the distance *is*
    the rival count) from stochastic mixes whose windows genuinely
    spread around the mean.
    """
    n = rt.shape[0]
    if n == 0:
        z = np.zeros(0, dtype=np.float64)
        return z, z.copy()
    hist = np.bincount(rt, minlength=n)
    p = (n - np.cumsum(hist)) / n  # p[m] = P(rt > m)
    f = np.empty(n + 1, dtype=np.float64)
    f[0] = 0.0
    np.cumsum(p, out=f[1:])
    v = np.empty(n + 1, dtype=np.float64)
    v[0] = 0.0
    np.cumsum(p * (1.0 - p), out=v[1:])
    return f[rt], v[rt]


def _binomial_tail(n_trials, p: np.ndarray, k_max: int) -> np.ndarray:
    """``P(Binomial(n_trials, p) <= k_max)`` per element of ``p``.

    ``n_trials`` may be a scalar or an array aligned with ``p``.
    Iterative-term recurrence (no scipy): ``t_0 = (1-p)^n`` and
    ``t_{j+1} = t_j * (n-j)/(j+1) * p/(1-p)``, summed for
    ``j <= k_max``; the ``(n-j)`` factor is floored at zero so the sum
    closes exactly at the support bound.  ``p = 1`` is handled by the
    support bound.
    """
    n = np.asarray(n_trials, dtype=np.float64)
    safe = np.clip(p, 0.0, 1.0 - 1e-15)
    term = np.exp(n * np.log1p(-safe)) * np.ones_like(p)
    total = term.copy()
    ratio = safe / (1.0 - safe)
    for j in range(int(k_max)):
        term = term * (np.maximum(n - j, 0.0) / (j + 1.0)) * ratio
        total += term
    total = np.where(n <= k_max, 1.0, total)
    # every rival is seen, and k_max of them don't fit: certain miss
    total[(p >= 1.0) & np.broadcast_to(n > k_max, p.shape)] = 0.0
    np.clip(total, 0.0, 1.0, out=total)
    return total


def hit_probability(
    distances: np.ndarray, geometry: CacheGeometry, n_lines: int
) -> np.ndarray:
    """P(hit) for accesses with expected stack distance ``D``.

    ``n_lines`` is the stream's distinct-line working set ``W`` at this
    line size.  Fully associative caches are exact: a hit iff fewer
    than ``A`` distinct lines intervened (linearly interpolated between
    integer distances).  Otherwise an access conflicts only with its
    set-mates: under the balanced mapping a set holds ``floor(W/S)`` or
    ``ceil(W/S)`` of the stream's lines, and the number of rivals among
    the ``D`` intervening lines (drawn from the ``W - 1`` others) is
    ``~ Binomial(K, D/(W-1))`` with ``K = occupancy - 1``; a hit needs
    at most ``A - 1`` of them.  Mixing the two occupancies by their
    line mass gives the per-access hit probability.
    """
    d = np.asarray(distances, dtype=np.float64)
    n_sets = geometry.n_sets
    assoc = geometry.associativity
    if n_sets == 1:
        return np.clip(float(assoc) - d, 0.0, 1.0)
    if n_lines <= 1:
        return np.ones_like(d)
    occ_lo, extra = divmod(n_lines, n_sets)
    # weight of each occupancy class = its share of the stream's lines
    w_hi = extra * (occ_lo + 1) / n_lines
    p_seen = np.clip(d / (n_lines - 1), 0.0, 1.0)
    prob = np.zeros_like(d)
    if w_hi < 1.0 and occ_lo > 0:
        prob += (1.0 - w_hi) * _binomial_tail(occ_lo - 1, p_seen, assoc - 1)
    elif w_hi < 1.0:
        prob += 1.0 - w_hi  # empty-but-target sets cannot conflict
    if w_hi > 0.0:
        prob += w_hi * _binomial_tail(occ_lo, p_seen, assoc - 1)
    # fewer distinct intervening lines than ways cannot miss
    prob[d <= assoc - 1] = 1.0
    np.clip(prob, 0.0, 1.0, out=prob)
    return prob


def congruent_hit_probability(
    distances: np.ndarray,
    variances: np.ndarray,
    geometry: CacheGeometry,
    n_lines: int,
    modulus: Optional[int] = None,
) -> np.ndarray:
    """P(hit) from *measured* congruent stack distances.

    ``distances``/``variances`` are the mean and variance of the count
    of distinct intervening lines congruent to the access modulo a
    divisor of the geometry's set count — the rivals observed on the
    set's own timeline, rather than thinned from the global stack
    distance by a uniform-mapping assumption.  An access hits iff at
    most ``A - 1`` rivals intervened; the rival count is modeled as the
    moment-matched binomial ``Binomial(n, D/n)`` with
    ``n = D^2 / (D - V)``, which collapses to a point mass for
    deterministic streams (``V = 0`` makes a miss at ``D >= A`` and a
    hit below it *certain*) and spreads like the sampled-set binomial
    when windows genuinely vary.  ``n`` is kept within
    ``[ceil(D), max(occupancy - 1, ceil(D))]`` so the support never
    exceeds the set's resident population.
    """
    d = np.asarray(distances, dtype=np.float64)
    v = np.asarray(variances, dtype=np.float64)
    assoc = geometry.associativity
    if n_lines <= 1:
        return np.ones_like(d)
    n_sets = geometry.n_sets
    if modulus is not None and modulus < n_sets:
        # The profiled modulus only divides the set count (e.g. 8 for a
        # Table III 24-set level): a mod-M congruent line lands in the
        # access's actual set with probability M/S.  Binomially thin
        # the measured count — power-of-two set counts always have
        # M = S and skip this, keeping deterministic conflicts exact.
        ratio = modulus / n_sets
        v = v * ratio * ratio + d * ratio * (1.0 - ratio)
        d = d * ratio
    occ = -(-n_lines // n_sets)  # ceil: resident lines per set
    lo = np.ceil(d)
    hi = np.maximum(float(max(occ - 1, 1)), lo)
    spread = d - v
    n_trials = np.where(
        spread > 1e-12,
        np.clip(np.divide(d * d, spread, out=np.ones_like(d),
                          where=spread > 1e-12), lo, hi),
        hi,
    )
    n_trials = np.maximum(n_trials, 1.0)
    p_seen = np.divide(d, n_trials, out=np.zeros_like(d), where=n_trials > 0)
    prob = _binomial_tail(n_trials, p_seen, assoc - 1)
    prob[d == 0.0] = 1.0
    np.clip(prob, 0.0, 1.0, out=prob)
    return prob


@dataclass
class ReuseProfile:
    """Compact per-instruction reuse-distance histogram of one stream.

    ``counts[i, b]`` is how many of instruction ``i``'s *interior*
    accesses (those with a same-line predecessor in the stream) have
    expected stack distance ``distances[b]`` (line-granular, for lines
    of ``line_size`` bytes); ``totals[i]`` is instruction ``i``'s full
    access count; ``n_lines`` is the stream's distinct-line working
    set.  First touches are split into a parallel histogram
    (``first_distances``/``first_counts``, same binning) over the
    block's circular-wrap stack distances so evaluation can add
    cross-block traffic (see module docstring) while preserving the
    wrap-distance distribution.  ``congruence`` maps each profiled
    modulus ``M``
    to the same histogram shape over *congruent* stack distances
    (distinct intervening lines sharing the access's line index mod
    ``M``); it is empty for all-random streams.  The profile knows
    nothing about any cache geometry — that binding happens at
    evaluation time.
    """

    line_size: int
    n_accesses: int
    n_lines: int
    totals: np.ndarray  # (n_instr,) int64
    distances: np.ndarray  # (n_bins,) float64
    counts: np.ndarray  # (n_instr, n_bins) int64
    first_distances: np.ndarray  # (n_bins_f,) float64
    first_counts: np.ndarray  # (n_instr, n_bins_f) int64
    #: modulus -> (distances (n_bins_m,), variances (n_bins_m,),
    #: counts (n_instr, n_bins_m))
    congruence: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    def eval_modulus(self, n_sets: int) -> Optional[int]:
        """Largest profiled modulus dividing ``n_sets`` (None if none)."""
        fits = [m for m in self.congruence if n_sets % m == 0]
        return max(fits) if fits else None

    def level_hit_rates(
        self, geometry: CacheGeometry, extra_lines: float = 0.0
    ) -> np.ndarray:
        """Per-instruction standalone hit rates against one geometry.

        ``extra_lines`` is the distinct-line traffic the rest of the
        program pushes through the cache between two executions of this
        stream's block; it only affects first-touch survival (interior
        reuse happens inside one execution of the block's loop nest).
        """
        if geometry.line_size != self.line_size:
            raise ValueError(
                f"profile is line_size={self.line_size}, geometry "
                f"{geometry.name!r} has line_size={geometry.line_size}"
            )
        REGISTRY.inc("cachesim.reuse.evals")
        modulus = (
            self.eval_modulus(geometry.n_sets)
            if geometry.n_sets > 1
            else None
        )
        if modulus is not None:
            dists, variances, counts = self.congruence[modulus]
            p = congruent_hit_probability(
                dists, variances, geometry, self.n_lines, modulus
            )
        else:
            counts = self.counts
            p = hit_probability(self.distances, geometry, self.n_lines)
        hits = counts @ p
        if self.first_counts.size:
            # first touches survive iff the block's own working set plus
            # the intervening cross-block traffic still fits; congruence
            # structure washes out under that mixed traffic, so the
            # global occupancy model applies.
            w_eff = self.n_lines + int(np.ceil(extra_lines))
            p_first = hit_probability(
                self.first_distances + extra_lines, geometry, w_eff
            )
            hits = hits + self.first_counts @ p_first
        return hits / np.maximum(self.totals, 1)


def _histogram(
    instr_idx: np.ndarray,
    rt: np.ndarray,
    values: Tuple[np.ndarray, ...],
    n_instructions: int,
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Per-instruction histogram keyed on reuse time.

    Bin key: exact below ``EXACT_BINS``, log-quantized above.  Each
    array in ``values`` (distances, variances, ...) is reduced to its
    count-weighted per-bin mean; returns ``(means, counts)`` with
    ``counts`` of shape ``(n_instructions, n_bins)``.
    """
    if rt.shape[0] == 0:
        return (
            tuple(np.zeros(0, dtype=np.float64) for _ in values),
            np.zeros((n_instructions, 0), dtype=np.int64),
        )
    key = rt
    if int(rt.max()) >= EXACT_BINS:
        coarse = rt >= EXACT_BINS
        key = rt.copy()
        key[coarse] = EXACT_BINS + (
            BINS_PER_OCTAVE * np.log2(rt[coarse] / EXACT_BINS)
        ).astype(np.int64)
    # the quantized key space is tiny (a few thousand values), so a
    # bincount lookup table beats np.unique's full sort of the stream
    occupied = np.bincount(key)
    uniq = np.flatnonzero(occupied)
    n_bins = uniq.shape[0]
    lookup = np.zeros(occupied.shape[0], dtype=np.int64)
    lookup[uniq] = np.arange(n_bins, dtype=np.int64)
    inverse = lookup[key]
    counts = np.bincount(
        instr_idx.astype(np.int64) * n_bins + inverse,
        minlength=n_instructions * n_bins,
    ).reshape(n_instructions, n_bins)
    bin_totals = np.maximum(np.bincount(inverse, minlength=n_bins), 1)
    means = tuple(
        np.bincount(inverse, weights=val, minlength=n_bins) / bin_totals
        for val in values
    )
    return means, counts


def profile_stream(
    instr_idx: np.ndarray,
    addresses: np.ndarray,
    n_instructions: int,
    line_size: int,
    moduli: Sequence[int] = (),
) -> ReuseProfile:
    """Profile one materialized ``(instr_idx, addresses)`` stream.

    ``moduli`` lists the congruence moduli to measure alongside the
    global profile (see :func:`congruence_moduli_for`); each costs one
    extra stable argsort over the stream.
    """
    n = addresses.shape[0]
    REGISTRY.inc("cachesim.reuse.profiles")
    REGISTRY.inc("cachesim.reuse.accesses", int(n))
    if n == 0:
        return ReuseProfile(
            line_size=line_size,
            n_accesses=0,
            n_lines=0,
            totals=np.zeros(n_instructions, dtype=np.int64),
            distances=np.zeros(0, dtype=np.float64),
            counts=np.zeros((n_instructions, 0), dtype=np.int64),
            first_distances=np.zeros(0, dtype=np.float64),
            first_counts=np.zeros((n_instructions, 0), dtype=np.int64),
        )
    if line_size & (line_size - 1) == 0:
        lines = addresses >> (int(line_size).bit_length() - 1)
    else:
        lines = addresses // line_size
    runs = _line_runs(lines)
    order, pos, starts, ends = runs
    n_lines = int(starts.shape[0])
    rt = _reuse_on_timeline(
        np.arange(n, dtype=np.int64), n, order, pos, starts, ends
    )
    # each line's first occurrence is first on *every* timeline; those
    # accesses are scored separately with cross-block context at eval
    first = np.zeros(n, dtype=bool)
    first[order[starts]] = True
    interior = ~first
    iidx = instr_idx.astype(np.int64)
    fd = expected_distances(rt)
    (distances,), counts = _histogram(
        iidx[interior], rt[interior], (fd[interior],), n_instructions
    )
    (first_distances,), first_counts = _histogram(
        iidx[first], rt[first], (fd[first],), n_instructions
    )
    congruence: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for modulus in moduli:
        rtc = class_reuse_times(lines, modulus, runs=runs)
        # Estimate distances on the repeat-deduplicated class timeline:
        # immediate same-line repeats (rtc == 0, certain hits with zero
        # intervening lines) otherwise flood the pooled reuse
        # distribution with zero mass and bias the StatStack window
        # estimate low for the bursty deterministic streams this path
        # exists for.  On the deduplicated timeline every tick is a
        # distinct-line candidate, making cyclic sweeps exact.
        keep = rtc != 0
        if keep.all():
            dist_c, var_c = distance_moments(rtc)
            key_c = rtc
        elif not keep.any():
            # every access an immediate repeat: zero intervening lines
            dist_c = np.zeros(n, dtype=np.float64)
            var_c = np.zeros(n, dtype=np.float64)
            key_c = np.zeros(n, dtype=np.int64)
        else:
            idx = np.flatnonzero(keep)
            rtc_sub = class_reuse_times(
                lines[idx], modulus, runs=_subset_runs(lines, runs, keep)
            )
            dist_sub, var_sub = distance_moments(rtc_sub)
            dist_c = np.zeros(n, dtype=np.float64)
            dist_c[idx] = dist_sub
            var_c = np.zeros(n, dtype=np.float64)
            var_c[idx] = var_sub
            key_c = np.zeros(n, dtype=np.int64)
            key_c[idx] = rtc_sub
        (dmean, vmean), ccounts = _histogram(
            iidx[interior],
            key_c[interior],
            (dist_c[interior], var_c[interior]),
            n_instructions,
        )
        congruence[modulus] = (dmean, vmean, ccounts)
    return ReuseProfile(
        line_size=line_size,
        n_accesses=int(n),
        n_lines=n_lines,
        totals=counts.sum(axis=1) + first_counts.sum(axis=1),
        distances=distances,
        counts=counts,
        first_distances=first_distances,
        first_counts=first_counts,
        congruence=congruence,
    )


def hierarchy_hit_rates(
    profiles: Dict[int, ReuseProfile],
    hierarchy: CacheHierarchy,
    extra_lines: Optional[Dict[int, float]] = None,
) -> np.ndarray:
    """Per-instruction *cumulative* hit rates, shape (n_instr, n_levels).

    Each level is evaluated standalone against the profile matching its
    line size; ``np.maximum.accumulate`` enforces the cumulative
    convention (a level at least as large as an inner one serves at
    least as many references in steady state).  ``extra_lines`` maps
    line size to the cross-block distinct-line traffic first-touch
    survival is charged with (see :func:`cross_block_lines`).
    """
    extra_lines = extra_lines or {}
    rates = np.stack(
        [
            profiles[g.line_size].level_hit_rates(
                g, extra_lines.get(g.line_size, 0.0)
            )
            for g in hierarchy.levels
        ],
        axis=1,
    )
    return np.maximum.accumulate(rates, axis=1)


def aggregate_rates(
    profiles: Dict[int, ReuseProfile],
    hierarchy: CacheHierarchy,
    extra_lines: Optional[Dict[int, float]] = None,
) -> np.ndarray:
    """Stream-aggregate cumulative hit rates, shape (n_levels,)."""
    rates = hierarchy_hit_rates(profiles, hierarchy, extra_lines)
    totals = next(iter(profiles.values())).totals.astype(np.float64)
    total = totals.sum()
    if total <= 0:
        return np.zeros(hierarchy.n_levels)
    return (totals @ rates) / total


def cross_block_lines(
    block_streams: Sequence[Tuple[Sequence, Sequence[int]]],
    line_size: int,
) -> np.ndarray:
    """Per-block cross-block eviction traffic, in distinct lines.

    ``block_streams`` holds each profiled block's ``(patterns, counts)``
    at its sampled length.  The exact engine executes blocks in program
    order, so between two executions of block ``b`` every other block
    pushes its own working set through the cache; the returned
    ``extras[b]`` estimates those distinct lines as the union of the
    *other* blocks' pattern regions (deduplicated by region identity,
    bounded by each instruction's access count, and excluding regions
    block ``b`` itself touches — traffic to a shared region refreshes
    rather than evicts).
    """

    def regions_of(patterns, counts):
        regions: Dict[Tuple[int, int], int] = {}
        for p, c in zip(patterns, counts):
            fp = int(p.footprint_bytes())
            lines = min(-(-fp // line_size), int(c))
            key = (int(p.base), fp)
            regions[key] = max(regions.get(key, 0), lines)
        return regions

    per_block = [regions_of(p, c) for p, c in block_streams]
    extras = np.zeros(len(per_block), dtype=np.float64)
    for i, own in enumerate(per_block):
        union: Dict[Tuple[int, int], int] = {}
        for j, other in enumerate(per_block):
            if j == i:
                continue
            for key, lines in other.items():
                if key in own:
                    continue
                union[key] = max(union.get(key, 0), lines)
        extras[i] = float(sum(union.values()))
    return extras


# ----------------------------------------------------------------------
# content addressing


def stream_key(
    patterns: Sequence,
    counts: Sequence[int],
    chunk: int,
    root: int = DEFAULT_ROOT_SEED,
) -> str:
    """Content digest of one block stream's *semantics*.

    Patterns are frozen dataclasses with stable reprs (the sigcache
    keys traces the same way), so equal inputs hash equal across
    processes.  Geometry is deliberately absent: the same key serves
    every hierarchy, which is what makes multi-geometry sweeps reuse
    one profile per block.
    """
    h = hashlib.sha256()
    h.update(b"reuse-stream-v1")
    h.update(int(root).to_bytes(16, "little", signed=True))
    h.update(int(chunk).to_bytes(8, "little"))
    for pattern, count in zip(patterns, counts):
        token = f"{pattern!r}*{int(count)}".encode("utf-8")
        h.update(len(token).to_bytes(8, "little"))
        h.update(token)
    return h.hexdigest()


def profiling_rng(key: str, root: int = DEFAULT_ROOT_SEED) -> RngStream:
    """The keyed stream that generates a profiled block's addresses.

    Derived from the content key, *not* from the collect path (which
    includes the hierarchy name): two collections against different
    hierarchies profile the identical stream and share the profile.
    """
    return RngStream("cache-reuse", key, root=root)


def profile_key(skey: str, line_size: int) -> str:
    """Cache key of one (stream, line size) profile.

    The version tag covers the on-disk format *and* the derivation of
    congruence moduli from the stream's patterns (both deterministic
    functions of the keyed inputs).
    """
    return hashlib.sha256(
        f"reuse-profile-v4|{skey}|{int(line_size)}".encode("utf-8")
    ).hexdigest()


@dataclass
class ProfileCacheStats(CounterSet):
    """Per-tier tallies of one :class:`ProfileCache` instance.

    The memory tier answers without touching disk; the disk tier pays a
    verified load; a miss pays a full re-profile.  ``evictions`` counts
    memory-LRU ejections — the signal that ``mem_entries`` is undersized
    for the working set (serve-mode capacity tuning reads this from the
    run manifest).  Every bump mirrors into the global metrics registry
    under ``cachesim.reuse.*``.
    """

    PREFIX = "cachesim.reuse"

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0


class ProfileCache:
    """In-memory LRU + optional on-disk store of reuse profiles.

    A :class:`~repro.util.store.Store` of pickled profiles under
    ``root`` (sharded by key prefix): verified on every disk read, and a
    corrupt entry is quarantined and recomputed.
    """

    def __init__(self, root: Optional[Path] = None, mem_entries: int = 128):
        self.root = Path(root) if root is not None else None
        self.mem_entries = mem_entries
        self.stats = ProfileCacheStats()
        self.store = Store(
            self.root,
            suffix=".pkl",
            shard=True,
            mem_entries=mem_entries,
            stats=self.stats,
            counters={name: name for name in self.stats.to_dict()},
        )

    def get(self, key: str) -> Optional[ReuseProfile]:
        profile = self.store.get(key, pickle.loads)
        if profile is not None:
            REGISTRY.inc("cachesim.reuse.profile_hits")
        return profile

    def put(self, key: str, profile: ReuseProfile) -> None:
        try:
            self.store.put(key, profile, pickle.dumps)
        except OSError:
            pass  # disk store is best-effort; memory entry stands

    def clear(self) -> None:
        self.store.clear_memory()


#: process-global profile cache (memory-only until configured)
_PROFILE_CACHE = ProfileCache()


def profile_cache() -> ProfileCache:
    return _PROFILE_CACHE


def configure_profile_cache(root: Optional[Path]) -> ProfileCache:
    """(Re)bind the global profile cache, optionally disk-backed."""
    global _PROFILE_CACHE
    _PROFILE_CACHE = ProfileCache(root)
    return _PROFILE_CACHE


def line_sizes_of(hierarchy: CacheHierarchy) -> Tuple[int, ...]:
    """Distinct line sizes a hierarchy needs profiles for, ascending."""
    return tuple(sorted({g.line_size for g in hierarchy.levels}))


def profiles_for(
    patterns: Sequence,
    counts: Sequence[int],
    line_sizes: Iterable[int],
    *,
    chunk: int,
    root: int = DEFAULT_ROOT_SEED,
    cache: Optional[ProfileCache] = None,
    moduli: Optional[Sequence[int]] = None,
) -> Dict[int, ReuseProfile]:
    """Fetch-or-compute the profiles of one block stream.

    The address stream is generated (from the content-keyed rng) only
    when at least one line size misses the cache, and then only once
    for all of them.  ``moduli`` lists the congruence moduli the caller
    will evaluate at (default: the full ladder for deterministic
    streams); a cached profile missing some of them is *extended* —
    only the missing moduli are measured — and re-stored, so a
    multi-hierarchy sweep accretes one union profile per stream
    instead of recomputing.
    """
    from repro.memstream.generator import interleave_streams

    cache = cache if cache is not None else _PROFILE_CACHE
    if moduli is None:
        moduli = congruence_moduli_for(patterns)
    skey = stream_key(patterns, counts, chunk, root)
    profiles: Dict[int, ReuseProfile] = {}
    missing: List[Tuple[int, Optional[ReuseProfile]]] = []
    for ls in line_sizes:
        cached = cache.get(profile_key(skey, ls))
        if cached is not None and all(
            m in cached.congruence for m in moduli
        ):
            profiles[ls] = cached
        else:
            missing.append((ls, cached))
    if missing:
        rng = profiling_rng(skey, root)
        idx_parts, addr_parts = [], []
        for instr_idx, addrs in interleave_streams(
            patterns, counts, rng, chunk=chunk
        ):
            idx_parts.append(instr_idx)
            addr_parts.append(addrs)
        instr_idx = (
            np.concatenate(idx_parts) if idx_parts
            else np.zeros(0, dtype=np.int32)
        )
        addresses = (
            np.concatenate(addr_parts) if addr_parts
            else np.zeros(0, dtype=np.int64)
        )
        for ls, cached in missing:
            if cached is None:
                profile = profile_stream(
                    instr_idx, addresses, len(patterns), ls, moduli=moduli
                )
            else:
                extra = [m for m in moduli if m not in cached.congruence]
                fresh = profile_stream(
                    instr_idx, addresses, len(patterns), ls, moduli=extra
                )
                cached.congruence.update(fresh.congruence)
                profile = cached
                REGISTRY.inc("cachesim.reuse.profile_extensions")
            cache.put(profile_key(skey, ls), profile)
            profiles[ls] = profile
    return profiles
