"""The address-stream kernel: its C source, ``ctypes`` signature and the
encoding of each access pattern into integer parameters.

:func:`repro.memstream.generator.interleave_streams` fills each chunk of
a block's stream through one C function, :data:`C_SOURCE`, built and
loaded by :func:`repro.util.native.load` on first use: every
instruction's addresses, for all seven pattern kinds, merged in the
order the numpy body's stable ``argsort`` gives.  A block holding a
pattern class :data:`KINDS` does not name (by exact type, so a subclass
is not taken for its parent) runs the numpy body, and so does every
block when the kernel cannot be built.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.memstream.patterns import (
    AccessPattern,
    BlockedPattern,
    ConstantPattern,
    GatherScatterPattern,
    PointerChasePattern,
    RandomPattern,
    StencilPattern,
    StridedPattern,
)
from repro.util.native import Kernel

C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* One chunk of a basic block's address stream, as
 * repro.memstream.generator.interleave_streams builds it with numpy.
 *
 * Pattern i is 7 int64 at pat + 7 * i: kind, base, element size,
 * element count, then the kind's parameters:
 *   0 constant
 *   1 strided         stride
 *   2 blocked         tile, tile * revisits, tile count
 *   3 random
 *   4 gather/scatter  cluster
 *   5 stencil         offset count, index of its first offset in aux
 *   6 pointer chase   min(hop, element count)
 * and salt[i] is its path salt.  Part k is 3 int64 at part + 3 * k:
 * pattern, first position, length (> 0).
 *
 * The arithmetic is numpy's: the strided, blocked and stencil kinds
 * compute in int64, which wraps, and their % is floor-mod (the result
 * takes the sign of the divisor); the random, gather/scatter and
 * pointer-chase kinds hash in uint64, which wraps too.
 *
 * The parts are merged into (instr, addr): the j-th of a part's n
 * addresses has the key j * (1.0 / n), keys are taken in ascending order
 * and a tie goes to the lower part -- the order of a stable argsort over
 * the parts' np.linspace(0, 1, n, endpoint=False).  So an address's
 * place is its j plus, for every other part, how many of that part's
 * keys are below its key (at most equal to it, for a lower part).  step,
 * key and count hold one entry per part.  A single part is written in
 * place.
 */

static inline int64_t floor_mod(int64_t a, int64_t n)
{
    int64_t r = a % n;
    return r < 0 ? r + n : r;
}

static inline uint64_t splitmix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Addresses start .. start + n - 1 of pattern p into out.  A part's
 * positions are consecutive, so the strided, blocked, gather/scatter and
 * stencil kinds step their indices instead of dividing per address (a
 * 64-bit division costs more than the rest of an address). */
static void fill_part(const int64_t *p, const int64_t *aux, uint64_t salt,
                      int64_t start, int64_t n, int64_t *out)
{
    uint64_t base = (uint64_t)p[1], size = (uint64_t)p[2];
    int64_t n_el = p[3];
    uint64_t un = (uint64_t)n_el;
#define EMIT(j, idx) (out[j] = (int64_t)(base + (uint64_t)(idx) * size))
    switch (p[0]) {
    case 0:
        for (int64_t j = 0; j < n; j++)
            out[j] = p[1];
        break;
    case 1: {
        int64_t stride = p[4];
        if (start + n - 1 > INT64_MAX / stride) {  /* the product wraps */
            for (int64_t j = 0; j < n; j++)
                EMIT(j, floor_mod((int64_t)((uint64_t)(start + j)
                                            * (uint64_t)stride), n_el));
            break;
        }
        uint64_t idx = (uint64_t)(start * stride % n_el);
        uint64_t step = (uint64_t)(stride % n_el);
        for (int64_t j = 0; j < n; j++) {
            EMIT(j, idx);
            idx += step;
            if (idx >= un)
                idx -= un;
        }
        break;
    }
    case 2: {
        /* pos / per_tile % n_tiles * tile + pos % per_tile % tile */
        int64_t tile = p[4], per_tile = p[5], n_tiles = p[6];
        int64_t t = start / per_tile % n_tiles, r = start % per_tile;
        int64_t w = r % tile;
        for (int64_t j = 0; j < n; j++) {
            EMIT(j, t * tile + w);
            if (++r == per_tile) {
                r = w = 0;
                if (++t == n_tiles)
                    t = 0;
            } else if (++w == tile) {
                w = 0;
            }
        }
        break;
    }
    case 3:
        for (int64_t j = 0; j < n; j++)
            EMIT(j, splitmix64((uint64_t)(start + j) + salt) % un);
        break;
    case 4: {
        /* (mix(pos / cluster + salt) % n_el + pos % cluster) % n_el */
        uint64_t cluster = (uint64_t)p[4];
        uint64_t id = (uint64_t)start / cluster, off = (uint64_t)start % cluster;
        uint64_t idx = (splitmix64(id + salt) % un + off) % un;
        for (int64_t j = 0; j < n; j++) {
            EMIT(j, idx);
            if (++off == cluster) {
                off = 0;
                idx = splitmix64(++id + salt) % un;
            } else if (++idx == un) {
                idx = 0;
            }
        }
        break;
    }
    case 5: {
        /* (pos / n_off % n_el + off[pos % n_off]) floor-mod n_el */
        int64_t n_off = p[4];
        const int64_t *off = aux + p[5];
        int64_t center = start / n_off % n_el, k = start % n_off;
        for (int64_t j = 0; j < n; j++) {
            EMIT(j, floor_mod((int64_t)((uint64_t)center + (uint64_t)off[k]),
                              n_el));
            if (++k == n_off) {
                k = 0;
                if (++center == n_el)
                    center = 0;
            }
        }
        break;
    }
    case 6: {
        uint64_t hop = (uint64_t)p[4];
        for (int64_t j = 0; j < n; j++) {
            uint64_t pos = (uint64_t)(start + j);
            uint64_t window = splitmix64((pos / 64) * 0x9E3779B9ULL + salt) % un;
            EMIT(j, (window + splitmix64(pos + salt) % hop) % un);
        }
        break;
    }
    }
#undef EMIT
}

/* One block of part k against part m: adds to at[j] -- or, with place,
 * writes the j-th address of the block to at[j] plus -- how many of part
 * m's addresses go first: those with a lower key, and those with an
 * equal key too when m is the lower part.  count and key carry part
 * m's walk between blocks: how many of its addresses went first so far
 * and the key of the next one.  Called with constant lower and place,
 * so each of the four uses compiles to its own loop. */
static inline __attribute__((always_inline)) void
walk(int lower, int place, int64_t *count, double *key, int64_t n_m,
     double step_m, double step_k, int64_t j0, int64_t len, int64_t *at,
     const int64_t *buf, int32_t id, int32_t *instr, int64_t *addr)
{
    int64_t c = *count;
    double next = *key;
    for (int64_t j = 0; j < len; j++) {
        double x = (double)(j0 + j) * step_k;
        while (next < x || (lower && next == x))
            next = ++c < n_m ? (double)c * step_m : HUGE_VAL;
        if (place) {
            instr[at[j] + c] = id;
            addr[at[j] + c] = buf[j];
        } else {
            at[j] += c;
        }
    }
    *count = c;
    *key = next;
}

void fill_stream(int64_t n_parts, const int64_t *part, const int64_t *pat,
                 const int64_t *aux, const uint64_t *salt, double *step,
                 double *key, int64_t *count, int32_t *instr, int64_t *addr)
{
    if (n_parts == 1) {
        int64_t i = part[0], n = part[2];
        fill_part(pat + 7 * i, aux, salt[i], part[1], n, addr);
        for (int64_t t = 0; t < n; t++)
            instr[t] = (int32_t)i;
        return;
    }
    for (int64_t m = 0; m < n_parts; m++)
        step[m] = 1.0 / (double)part[3 * m + 2];
    int64_t buf[256], at[256];
    for (int64_t k = 0; k < n_parts; k++) {
        const int64_t *pk = part + 3 * k;
        int64_t n = pk[2], last = k == n_parts - 1 ? k - 1 : n_parts - 1;
        for (int64_t m = 0; m < n_parts; m++) {
            count[m] = 0;
            key[m] = 0.0;
        }
        for (int64_t j0 = 0; j0 < n; j0 += 256) {
            int64_t len = n - j0 < 256 ? n - j0 : 256;
            fill_part(pat + 7 * pk[0], aux, salt[pk[0]], pk[1] + j0, len, buf);
            for (int64_t j = 0; j < len; j++)
                at[j] = j0 + j;
            /* every other part adds its addresses that go first; the
             * last one places the block */
            for (int64_t m = 0; m <= last; m++) {
#define WALK(lower, place)                                                 \
                walk(lower, place, count + m, key + m, part[3 * m + 2],    \
                     step[m], step[k], j0, len, at, buf, (int32_t)pk[0],   \
                     instr, addr)
                if (m == k)
                    continue;
                else if (m < last)
                    m < k ? WALK(1, 0) : WALK(0, 0);
                else
                    m < k ? WALK(1, 1) : WALK(0, 1);
#undef WALK
            }
        }
    }
}
"""

KERNEL = Kernel(
    name="address stream",
    source=C_SOURCE,
    symbol="fill_stream",
    argtypes=(ctypes.c_int64,) + (ctypes.c_void_p,) * 9,
    fallback="address streams are generated and merged by the numpy patterns",
)


@dataclass(frozen=True)
class Encoded:
    """A block's patterns as the kernel reads them."""

    params: np.ndarray  #: (n_patterns, 7) int64
    aux: np.ndarray  #: every stencil's offsets, int64


#: exact pattern type -> (kind, its kind parameters; None: stencil offsets)
KINDS = {
    ConstantPattern: (0, lambda p: ()),
    StridedPattern: (1, lambda p: (p.stride_elements,)),
    BlockedPattern: (2, lambda p: p.tiling),
    RandomPattern: (3, lambda p: ()),
    GatherScatterPattern: (4, lambda p: (p.cluster,)),
    StencilPattern: (5, None),
    PointerChasePattern: (6, lambda p: (p.hop_window,)),
}


def encode(patterns: Sequence[AccessPattern]) -> Optional[Encoded]:
    """The patterns' kernel parameters, or ``None`` when one of them is
    of a type :data:`KINDS` does not name or has a parameter outside
    int64 (the numpy body then raises or answers as it always has)."""
    rows: List[list] = []
    aux: List[int] = []
    try:
        for p in patterns:
            kind = KINDS.get(type(p))
            if kind is None:
                return None
            code, params = kind
            if params is None:  # stencil: offsets go to aux
                offsets = np.asarray(p.offsets, dtype=np.int64)
                extra = (len(offsets), len(aux))
                aux.extend(int(o) for o in offsets)
            else:
                extra = params(p)
            rows.append([code, p.base, p.element_size, p.n_elements, *extra]
                        + [0] * (3 - len(extra)))
        table = np.array(rows, dtype=np.int64)
    except OverflowError:
        return None
    return Encoded(table, np.array(aux, dtype=np.int64))


def fill(
    fn: Callable, encoded: Encoded, salts: np.ndarray,
    parts: Sequence[Tuple[int, int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk: fresh ``int32`` instruction indices and ``int64``
    addresses of the ``(pattern, start, n)`` parts (each ``n > 0``),
    merged."""
    part = np.array(parts, dtype=np.int64)
    total = int(part[:, 2].sum())
    instr = np.empty(total, dtype=np.int32)
    addr = np.empty(total, dtype=np.int64)
    work = np.empty((2, len(parts)), dtype=np.float64)
    count = np.empty(len(parts), dtype=np.int64)
    fn(len(parts), part.ctypes.data, encoded.params.ctypes.data,
       encoded.aux.ctypes.data, salts.ctypes.data, work[0].ctypes.data,
       work[1].ctypes.data, count.ctypes.data, instr.ctypes.data,
       addr.ctypes.data)
    return instr, addr
