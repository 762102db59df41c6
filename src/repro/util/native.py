"""Native kernels: compile a C function on first use, cache it, load it.

A :class:`Kernel` declares one C function: its source, symbol, ``ctypes``
signature and any compile flags beyond the base :data:`CFLAGS`.
:func:`load` compiles it with the system C compiler (``cc`` or ``gcc``,
whichever is on ``PATH``) and returns the function.  The built library
is a directory entry of a :class:`repro.util.store.Store` under
``~/.cache/repro/kernels/``, keyed by the SHA-256 of the source, the
compile command and the machine architecture.  The store's lock makes
processes racing the first build compile once, and its verify-on-get
quarantines a damaged library, which is then rebuilt.  When that root
is not writable the library is built into a private temp dir.

Without a compiler (or when the build fails) :func:`load` returns
``None`` after one warning naming what runs instead; each kernel's
caller keeps a pure-Python oracle for that case.  Nothing is compiled
at import: each kernel is built and loaded on its first :func:`load`,
once per process.
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
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

from repro.obs.log import get_logger
from repro.util.store import Store

log = get_logger("util.native")

#: base compiler flags; no ``-march=native``, since a shared ``HOME`` may
#: load the library on a different CPU
CFLAGS = ("-O2", "-shared", "-fPIC")
LIBRARY = "kernel.so"

_LOCK = threading.Lock()


@dataclass(frozen=True)
class Kernel:
    """One C function and how to build and call it.

    ``fallback`` completes the warning logged when the kernel cannot be
    built ("... : <fallback>"), naming what runs in its place.
    """

    name: str
    source: str
    symbol: str
    argtypes: Tuple
    restype: object = None
    flags: Tuple[str, ...] = ()
    fallback: str = ""


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


def _compile(cc: str, kernel: Kernel) -> bytes:
    with tempfile.TemporaryDirectory(prefix="repro-kernel-build-") as tmp:
        src, out = Path(tmp) / "kernel.c", Path(tmp) / LIBRARY
        src.write_text(kernel.source)
        subprocess.run(
            [cc, *CFLAGS, *kernel.flags, "-o", str(out), str(src)],
            check=True, capture_output=True, text=True,
        )
        return out.read_bytes()


def _library(cc: str, kernel: Kernel) -> Path:
    """The verified library's path, compiled into the store if needed."""
    command = " ".join([os.path.basename(cc), *CFLAGS, *kernel.flags])
    key = hashlib.sha256(
        "\0".join([kernel.source, command, platform.machine(), LIBRARY]).encode()
    ).hexdigest()
    store = Store(_writable_root())

    def cached() -> Optional[Path]:
        return store.get_dir(key, lambda meta, files: store.path(key) / LIBRARY)

    path = cached()
    if path is None:
        path = store.acquire(key, cached)
    if path is None:  # we hold the lock and the entry is still missing
        try:
            library = _compile(cc, kernel)
            store.put_dir(
                key, library,
                lambda data: ({LIBRARY: data}, {"command": command}),
            )
        finally:
            store.release(key)
        path = store.path(key) / LIBRARY
        log.info("compiled the %s kernel into %s", kernel.name, path)
    return path


@functools.lru_cache(maxsize=None)
def _load(kernel: Kernel) -> Optional[Callable]:
    cc = _compiler()
    if cc is None:
        log.warning("no C compiler (cc or gcc) on PATH: %s", kernel.fallback)
        return None
    try:
        fn = getattr(ctypes.CDLL(str(_library(cc, kernel))), kernel.symbol)
    except (OSError, AttributeError, subprocess.SubprocessError,
            TimeoutError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        log.warning("could not build the %s kernel (%s): %s",
                    kernel.name, detail, kernel.fallback)
        return None
    fn.restype = kernel.restype
    fn.argtypes = list(kernel.argtypes)
    return fn


def load(kernel: Kernel) -> Optional[Callable]:
    """The compiled function, or ``None`` (one warning) when it cannot be
    built or loaded.  Built and loaded once per process."""
    with _LOCK:
        return _load(kernel)


#: forget every loaded kernel (tests re-run the first load)
cache_clear = _load.cache_clear
