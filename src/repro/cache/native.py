"""The exact-LRU replay kernel: its C source and ``ctypes`` signature.

:class:`repro.cache.simulator.HierarchySimulator` replays each address
chunk through one C function, :data:`C_SOURCE`, built and loaded by
:func:`repro.util.native.load` on first use.  Without a compiler the
simulator replays through the scalar
:class:`repro.cache.reference.ReferenceCacheLevel` instead: same
answers, orders of magnitude slower.
"""

from __future__ import annotations

import ctypes

from repro.util.native import Kernel

C_SOURCE = r"""
#include <stdint.h>

/* Exact set-associative LRU replay of one address chunk through a
 * cache hierarchy, L1 first.
 *
 * geom holds 5 int64 per level: line shift, set count, associativity,
 * set mask (-1 when the set count is not a power of two) and the
 * offset of the level's state in `state`.  A level's state holds one
 * record per set: its fill count, then `assoc` ways, most recently used
 * first.
 * An access walks outward until a level holds its line; each level it
 * passed installs the line, evicting its least recently used way.
 * counts[key * (n_levels + 1) + j] counts the accesses level j served
 * (j == n_levels: memory); key is instr[i], or 0 when instr is NULL.
 */
void replay(int64_t n_levels, const int64_t *geom, int64_t *state,
            const int64_t *addr, const int64_t *instr, int64_t n,
            int64_t *counts)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t j = 0;
        for (; j < n_levels; j++) {
            const int64_t *g = geom + 5 * j;
            /* GCC and Clang shift signed values arithmetically, so this
             * is floor(addr / line_size) for negative addresses too */
            int64_t line = addr[i] >> g[0];
            int64_t set = g[3] >= 0 ? (line & g[3]) : line % g[1];
            if (set < 0)
                set += g[1];
            int64_t assoc = g[2];
            int64_t *fill = state + g[4] + set * (assoc + 1);
            int64_t *ways = fill + 1;
            int64_t used = *fill, k = 0;
            while (k < used && ways[k] != line)
                k++;
            int hit = k < used;
            if (!hit) {
                if (used < assoc)
                    *fill = used + 1;
                else
                    k = assoc - 1;
            }
            for (; k > 0; k--)
                ways[k] = ways[k - 1];
            ways[0] = line;
            if (hit)
                break;
        }
        counts[(instr ? instr[i] : 0) * (n_levels + 1) + j]++;
    }
}
"""

KERNEL = Kernel(
    name="LRU replay",
    source=C_SOURCE,
    symbol="replay",
    argtypes=(ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
              ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
              ctypes.c_void_p),
    fallback="exact cache replay runs the scalar reference simulator, "
             "orders of magnitude slower",
)
