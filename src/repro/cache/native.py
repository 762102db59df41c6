"""The exact-LRU replay kernel: C source, build cache and loader.

:class:`repro.cache.simulator.HierarchySimulator` replays each address
chunk through one C function, :data:`C_SOURCE`.  The kernel is compiled
on first use with the system C compiler (``cc`` or ``gcc``, whichever is
on ``PATH``) and called through :mod:`ctypes`.  The built library is a
directory entry of a :class:`repro.util.store.Store` under
``~/.cache/repro/kernels/``, keyed by the SHA-256 of the source, the
compile command and the machine architecture.  The store's lock makes
processes racing the first build compile once, and its verify-on-get
quarantines a damaged library, which is then rebuilt.  When that root
is not writable the library is built into a private temp dir.

Without a compiler (or when the build fails) :func:`replay_kernel`
returns ``None`` after one warning, and the simulator replays through
the scalar :class:`repro.cache.reference.ReferenceCacheLevel` instead:
same answers, orders of magnitude slower.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

from repro.obs.log import get_logger
from repro.util.store import Store

log = get_logger("cache.native")

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

#: compiler flags; no ``-march=native``, since a shared ``HOME`` may
#: load the library on a different CPU
CFLAGS = ("-O2", "-shared", "-fPIC")
LIBRARY = "replay.so"


def _compiler() -> Optional[str]:
    return shutil.which("cc") or shutil.which("gcc")


def _writable_root() -> Path:
    try:
        root = Path.home() / ".cache" / "repro" / "kernels"
        root.mkdir(parents=True, exist_ok=True)
        if os.access(root, os.W_OK | os.X_OK):
            return root
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        pass
    private = Path(tempfile.mkdtemp(prefix="repro-kernels-"))
    atexit.register(shutil.rmtree, private, True)
    log.info("kernel root is not writable; building into %s", private)
    return private


def _compile(cc: str) -> bytes:
    with tempfile.TemporaryDirectory(prefix="repro-kernel-build-") as tmp:
        src, out = Path(tmp) / "replay.c", Path(tmp) / LIBRARY
        src.write_text(C_SOURCE)
        subprocess.run(
            [cc, *CFLAGS, "-o", str(out), str(src)],
            check=True, capture_output=True, text=True,
        )
        return out.read_bytes()


def _library(cc: str) -> Path:
    """The verified library's path, compiled into the store if needed."""
    command = " ".join([os.path.basename(cc), *CFLAGS])
    key = hashlib.sha256(
        "\0".join([C_SOURCE, command, platform.machine()]).encode()
    ).hexdigest()
    store = Store(_writable_root())

    def cached() -> Optional[Path]:
        return store.get_dir(key, lambda meta, files: store.path(key) / LIBRARY)

    path = cached()
    if path is None:
        path = store.acquire(key, cached)
    if path is None:  # we hold the lock and the entry is still missing
        try:
            library = _compile(cc)
            store.put_dir(
                key, library,
                lambda data: ({LIBRARY: data}, {"command": command}),
            )
        finally:
            store.release(key)
        path = store.path(key) / LIBRARY
        log.info("compiled the LRU replay kernel into %s", path)
    return path


@functools.lru_cache(maxsize=None)
def replay_kernel() -> Optional[Callable]:
    """The compiled ``replay`` function, or ``None`` (one warning) when
    it cannot be built or loaded.  Built and loaded once per process."""
    cc = _compiler()
    if cc is None:
        log.warning(
            "no C compiler (cc or gcc) on PATH: exact cache replay runs "
            "the scalar reference simulator, orders of magnitude slower"
        )
        return None
    try:
        fn = ctypes.CDLL(str(_library(cc))).replay
    except (OSError, subprocess.SubprocessError, TimeoutError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        log.warning(
            "could not build the LRU replay kernel (%s): exact cache "
            "replay runs the scalar reference simulator", detail
        )
        return None
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                   ctypes.c_void_p]
    return fn

