"""Chunked address-stream generation and interleaving.

A basic block executes several memory instructions per iteration; the
dynamic address stream interleaves their accesses.
:func:`interleave_streams` yields ``(instruction_index, addresses)``
chunks in program order without materializing the full stream,
mirroring the paper's on-the-fly processing (Fig. 2).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.memstream import native
from repro.memstream.patterns import AccessPattern, path_salt
from repro.util.native import load
from repro.util.rng import RngStream

#: Default number of addresses per generated chunk.  Large enough to
#: amortize numpy call overhead, small enough to stay cache-resident.
DEFAULT_CHUNK = 1 << 16


def interleave_streams(
    patterns: Sequence[AccessPattern],
    counts: Sequence[int],
    rng: RngStream,
    *,
    chunk: int = DEFAULT_CHUNK,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Interleave several instructions' streams in round-robin program order.

    Yields ``(instr_idx, addresses)`` chunk pairs where ``instr_idx[i]``
    identifies the instruction that issued ``addresses[i]``.  Within a
    chunk, accesses follow the per-iteration issue order: iteration 0 of
    every instruction, then iteration 1, etc., weighted by each
    instruction's relative count — the order a simple loop body would
    produce.  This interleaving matters: cache behavior of instruction A
    depends on the lines B and C touch in between A's accesses.

    Each chunk is filled by the native kernel (:mod:`repro.memstream.native`)
    when it loads and knows every pattern's type, else by the numpy
    patterns; both give the same arrays, fresh for every chunk.
    """
    if len(patterns) != len(counts):
        raise ValueError("patterns and counts must have the same length")
    if not patterns:
        return
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    if sum(counts) == 0:
        return
    fn = load(native.KERNEL)
    encoded = native.encode(patterns) if fn is not None else None
    if encoded is None:
        for parts in _schedule(counts, chunk):
            yield _merge_numpy(patterns, rng, parts)
        return
    salts = np.array(
        [path_salt(*rng.path, "instr", i, root=rng.root)
         for i in range(len(patterns))],
        dtype=np.uint64,
    )
    for parts in _schedule(counts, chunk):
        yield native.fill(fn, encoded, salts, parts)


def pattern_addresses(
    pattern: AccessPattern, start: int, count: int, rng: RngStream
) -> np.ndarray:
    """``pattern.addresses(start, count, rng)``, filled by the native
    kernel as a one-part chunk when it loads and knows the pattern."""
    fn = load(native.KERNEL)
    encoded = (
        native.encode([pattern])
        if fn is not None and start >= 0 and count > 0 else None
    )
    if encoded is None:
        return pattern.addresses(start, count, rng)
    salts = np.array([path_salt(*rng.path, root=rng.root)], dtype=np.uint64)
    return native.fill(fn, encoded, salts, [(0, start, count)])[1]


def _schedule(counts: List[int], chunk: int) -> Iterator[List[Tuple[int, int, int]]]:
    """Each chunk's ``(instruction, start, n)`` parts, in instruction order."""
    total = sum(counts)
    max_count = max(counts)
    # per-iteration issue ratio of instruction i
    ratios = np.array([c / max_count for c in counts])
    produced = [0] * len(counts)
    emitted = 0
    # iterate in "super-iterations"; in each one, instruction i issues
    # round(ratio_i * span) accesses.  Build chunks of ~chunk accesses.
    span = max(1, chunk // len(counts))
    iteration = 0
    while emitted < total:
        parts = []
        for i, count in enumerate(counts):
            target = min(count, int(round(ratios[i] * (iteration + 1) * span)))
            if target > produced[i]:
                parts.append((i, produced[i], target - produced[i]))
        iteration += 1
        if not parts:
            # ratio rounding stalled; flush remaining instructions directly
            parts = [(i, produced[i], count - produced[i])
                     for i, count in enumerate(counts) if count > produced[i]]
        for i, start, n in parts:
            produced[i] += n
            emitted += n
        yield parts


def _merge_numpy(
    patterns: Sequence[AccessPattern], rng: RngStream,
    parts: List[Tuple[int, int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk from the numpy patterns: the oracle of the native kernel."""
    idx_parts = [np.full(n, i, dtype=np.int32) for i, _, n in parts]
    addr_parts = [
        patterns[i].addresses(start, n, rng.child("instr", i))
        for i, start, n in parts
    ]
    # interleave the per-instruction runs element-wise to approximate
    # issue order within the super-iteration
    order = np.argsort(
        np.concatenate(
            [np.linspace(0, 1, len(p), endpoint=False) for p in idx_parts]
        ),
        kind="stable",
    )
    return np.concatenate(idx_parts)[order], np.concatenate(addr_parts)[order]
