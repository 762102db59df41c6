"""Build lifecycle of the native kernels (``repro.util.native``).

Each kernel is compiled on first use into ``~/.cache/repro/kernels``;
these tests pin what happens without a compiler, with a damaged cached
library, with two processes racing the first build, at import time and
when the kernel root is not writable.  The lifecycle tests run once per
kernel in :data:`KERNELS`: the LRU replay kernel (``repro.cache.native``),
the event replay kernel (``repro.psins.native``) and the address-stream
kernel (``repro.memstream.native``); the other two kernels' no-compiler
fallbacks are pinned in ``tests/test_psins_native.py`` and
``tests/test_memstream_native.py``.
Subprocess tests point ``HOME`` at a temp dir so each starts from an
empty kernel root.
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.simulator import HierarchySimulator
from repro.machine.network import NetworkParameters
from repro.memstream.generator import interleave_streams
from repro.memstream.patterns import (
    BlockedPattern,
    GatherScatterPattern,
    RandomPattern,
    StridedPattern,
)
from repro.psins.replay import UniformTimer, replay_job
from repro.simmpi.runtime import run_job
from repro.util import native as loader
from repro.util.rng import stream
from repro.util.units import KB
from tests.test_cache_simulator import _geometry_zoo, _served_levels

ROOT = Path(__file__).resolve().parents[1]
COMPILER = shutil.which("cc") or shutil.which("gcc")
needs_compiler = pytest.mark.skipif(COMPILER is None, reason="no C compiler on PATH")

#: a child's answer, from the LRU kernel it built or loaded
ZOO_DIGEST = """
from repro.cache.simulator import HierarchySimulator
from tests.test_cache_native import _zoo_digest_here
from tests.test_cache_simulator import _geometry_zoo

assert HierarchySimulator(_geometry_zoo()[0])._kernel is not None
print(_zoo_digest_here())
"""

#: a child's answer, from the event replay kernel it built or loaded
REPLAY_DIGEST = """
from repro.psins import native
from repro.util.native import load
from tests.test_cache_native import _replay_digest_here

assert load(native.KERNEL) is not None
print(_replay_digest_here())
"""


#: a child's answer, from the address-stream kernel it built or loaded
STREAM_DIGEST = """
from repro.memstream import native
from repro.util.native import load
from tests.test_cache_native import _stream_digest_here

assert load(native.KERNEL) is not None
print(_stream_digest_here())
"""


def _zoo_digest_here() -> str:
    """SHA-256 of the served-level sequences on the geometry zoo."""
    digest = hashlib.sha256()
    for h in _geometry_zoo():
        addrs = RandomPattern(region_bytes=32 * KB).addresses(
            0, 3000, stream("native", h.name)
        )
        served, _ = _served_levels(h, addrs - 4 * KB, chunk=499)
        digest.update(served.tobytes())
    return digest.hexdigest()


def _ring(comm):
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    for step in range(3):
        comm.compute(step, 100 * (comm.rank + 1))
        comm.send(right, 4096 * (step + 1), tag=step)
        comm.recv(left, 4096 * (step + 1), tag=step)
        comm.allreduce(8)


def _replay_digest_here() -> str:
    """SHA-256 of a ring job's replayed per-rank times."""
    result = replay_job(
        run_job("ring", 16, _ring),
        UniformTimer(lambda block: 1e-7 * (block + 1)),
        NetworkParameters(),
    )
    return hashlib.sha256(
        result.compute_time_s.tobytes() + result.comm_time_s.tobytes()
    ).hexdigest()


def _stream_digest_here() -> str:
    """SHA-256 of a three-instruction block's interleaved stream."""
    patterns = [
        BlockedPattern(region_bytes=64 * KB, tile_elements=64, revisits=3),
        StridedPattern(region_bytes=16 * KB),
        GatherScatterPattern(region_bytes=32 * KB, locality=0.8),
    ]
    digest = hashlib.sha256()
    for instr, addrs in interleave_streams(
        patterns, [2400, 32000, 1000], stream("native", "stream"), chunk=4096
    ):
        digest.update(instr.tobytes() + addrs.tobytes())
    return digest.hexdigest()


#: name -> (child script, in-process digest function) of each kernel
KERNELS = {
    "lru": (ZOO_DIGEST, _zoo_digest_here),
    "replay": (REPLAY_DIGEST, _replay_digest_here),
    "stream": (STREAM_DIGEST, _stream_digest_here),
}


def _env(home: Path, path_prefix: Path = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + str(ROOT),
               HOME=str(home))
    if path_prefix is not None:
        env["PATH"] = f"{path_prefix}{os.pathsep}{env.get('PATH', '')}"
    return env


def _spawn(home: Path, script: str = ZOO_DIGEST, path_prefix: Path = None):
    return subprocess.Popen(
        [sys.executable, "-c", script], cwd=ROOT, env=_env(home, path_prefix),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc) -> str:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out.strip()


def _kernel_root(home: Path) -> Path:
    return home / ".cache" / "repro" / "kernels"


def _counting_compiler(tmp_path: Path) -> Path:
    """A ``cc`` that logs each call, then waits a second (so a racing
    process arrives mid-build) and runs the real compiler."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir(parents=True)
    cc = bin_dir / "cc"
    cc.write_text(
        "#!/bin/sh\n"
        f"echo call >> '{tmp_path / 'cc.log'}'\n"
        "sleep 1\n"
        f"exec '{COMPILER}' \"$@\"\n"
    )
    cc.chmod(0o755)
    return bin_dir


@pytest.fixture
def fresh_kernel():
    """Forget the process's loaded kernels before and after the test."""
    loader.cache_clear()
    yield
    loader.cache_clear()


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def test_no_compiler_falls_back_to_reference_with_one_warning(
    fresh_kernel, monkeypatch
):
    logger = logging.getLogger("repro.util.native")
    handler, level = _Records(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)  # whatever --quiet a test left behind
    monkeypatch.setattr(loader, "_compiler", lambda: None)
    try:
        assert HierarchySimulator(_geometry_zoo()[0])._kernel is None
        fallback = _zoo_digest_here()
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert len(handler.records) == 1
    assert "no C compiler" in handler.records[0].getMessage()
    if COMPILER is not None:
        monkeypatch.undo()
        loader.cache_clear()
        assert HierarchySimulator(_geometry_zoo()[0])._kernel is not None
        assert _zoo_digest_here() == fallback


@needs_compiler
def test_truncated_library_is_quarantined_and_rebuilt(tmp_path):
    for name, (script, _) in KERNELS.items():
        home = tmp_path / name
        first = _finish(_spawn(home, script))
        root = _kernel_root(home)
        (entry,) = [p for p in root.iterdir() if p.name not in ("locks", "quarantine")]
        library = entry / loader.LIBRARY
        data = library.read_bytes()
        library.write_bytes(data[: len(data) // 2])

        assert _finish(_spawn(home, script)) == first
        (copy,) = (root / "quarantine").iterdir()
        assert copy.name.startswith(entry.name)
        assert (copy / loader.LIBRARY).stat().st_size == len(data) // 2
        assert (entry / loader.LIBRARY).read_bytes() == data


@needs_compiler
def test_racing_processes_compile_once(tmp_path):
    for name, (script, _) in KERNELS.items():
        home = tmp_path / name / "home"
        bin_dir = _counting_compiler(tmp_path / name)
        procs = [_spawn(home, script, path_prefix=bin_dir) for _ in range(2)]
        digests = [_finish(p) for p in procs]
        assert digests[0] == digests[1]
        assert (tmp_path / name / "cc.log").read_text().splitlines() == ["call"]


def test_import_cli_builds_nothing(tmp_path):
    _finish(_spawn(
        tmp_path,
        "import repro.cli, repro.cache.simulator, repro.psins.replay, "
        "repro.pipeline.predict, repro.memstream.generator, "
        "repro.machine.multimaps",
    ))
    root = _kernel_root(tmp_path)
    assert not root.exists() or not any(root.iterdir())


@needs_compiler
def test_unwritable_root_builds_privately(tmp_path):
    for name, (script, digest_here) in KERNELS.items():
        root = _kernel_root(tmp_path / name)
        root.parent.mkdir(parents=True)
        root.write_text("not a directory")
        assert _finish(_spawn(tmp_path / name, script)) == digest_here()
        assert root.read_text() == "not a directory"
