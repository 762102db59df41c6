"""Run manifests: every artifact traceable to the run that produced it.

A manifest is one JSON document written next to a command's outputs
(``run_manifest.json``) recording *what produced what*: the git SHA and
python/platform of the build, the full CLI configuration, the RNG root
seed, the app/machine identities, per-stage wall-clock durations, the
cache and resilience tallies, and a SHA-256 digest of every output
artifact.

Digests are **content** digests: ``.npz`` outputs are hashed member by
member (name + uncompressed payload bytes) rather than as container
bytes, because zip containers embed timestamps — two runs that produce
bit-identical arrays get bit-identical digests, which is the
reproducibility contract the manifest exists to check.
"""

from __future__ import annotations

import functools
import hashlib
import platform
import subprocess
import sys
import time
import zipfile
from pathlib import Path
from typing import Dict, Optional, Union

from repro.util.atomic import atomic_write_json
from repro.util.rng import DEFAULT_ROOT_SEED

SCHEMA_VERSION = 1

MANIFEST_NAME = "run_manifest.json"


def digest_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def digest_file(path: Union[str, Path]) -> str:
    """Content digest of one artifact (zip-container-timestamp-proof)."""
    path = Path(path)
    if path.suffix == ".npz" and zipfile.is_zipfile(path):
        h = hashlib.sha256()
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                h.update(name.encode("utf-8"))
                h.update(b"\x00")
                h.update(zf.read(name))
        return h.hexdigest()
    return digest_bytes(path.read_bytes())


def git_sha() -> Optional[str]:
    """HEAD of the repository this package lives in, or ``None``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@functools.lru_cache(maxsize=None)
def default_code_version() -> str:
    """The code-version token content-addressed specs and stores default
    to: a SHA-256 over the ``repro`` package's ``*.py`` files (sorted
    relative path, then size and bytes).  Identical sources give one
    token whatever the checkout or commit; any edit gives another.
    Computed once per process."""
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")):
        data = (root / rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def _describe_output(value: Union[str, Path, bytes]) -> dict:
    if isinstance(value, bytes):
        return {"sha256": digest_bytes(value), "bytes": len(value)}
    path = Path(value)
    return {
        "path": str(path),
        "sha256": digest_file(path),
        "bytes": path.stat().st_size,
    }


def build_manifest(
    *,
    command: str,
    config: Optional[dict] = None,
    outputs: Optional[Dict[str, Union[str, Path, bytes]]] = None,
    app: Optional[str] = None,
    machine: Optional[str] = None,
    seed: int = DEFAULT_ROOT_SEED,
    cache=None,
    report=None,
    guard=None,
    tracer=None,
    profile_cache=None,
    serve=None,
    dag=None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble the manifest document for one run.

    ``outputs`` maps artifact names to file paths (digested from disk)
    or raw bytes (for stdout-rendered results like the Table I text).
    ``cache``/``report`` accept the live ``SignatureCache``/``RunReport``
    objects (or their stats) and serialize through their ``to_dict()``
    views; ``tracer``
    contributes per-stage durations.  ``profile_cache`` accepts the
    reuse-engine :class:`~repro.cache.reuse.ProfileCache` (or its
    stats): per-tier hit/miss/eviction counts land under
    ``"profile_cache"`` so reuse/serve capacity can be tuned from the
    manifest alone.  ``serve`` accepts the serving-tier
    :class:`~repro.serve.resilience.ServeReport` (or its dict view):
    the per-run fault tallies land under ``"serve"`` so the manifest,
    the metrics registry, and ``serve_summary.json`` can be held to the
    same numbers.  ``dag`` accepts the pipeline-DAG run view
    (:class:`~repro.pipeline.dag.DagRunResult`, its stats, or a plain
    dict): node statuses and the ``dag.*`` tallies land under ``"dag"``.
    """
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {
            k: (v if isinstance(v, (str, int, float, bool, list)) or v is None
                else repr(v))
            for k, v in sorted((config or {}).items())
        },
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "seed": seed,
        "app": app,
        "machine": machine,
        "created_unix_s": round(time.time(), 3),
        "outputs": {
            name: _describe_output(value)
            for name, value in sorted((outputs or {}).items())
        },
    }
    if cache is not None:
        stats = getattr(cache, "stats", cache)
        doc["cache"] = stats.to_dict()
    if report is not None:
        doc["resilience"] = report.to_dict()
    if guard is not None:
        doc["guard"] = guard.to_dict() if hasattr(guard, "to_dict") else guard
    if profile_cache is not None:
        stats = getattr(profile_cache, "stats", profile_cache)
        doc["profile_cache"] = stats.to_dict()
    if tracer is not None:
        doc["stage_durations"] = tracer.stage_durations()
    if serve is not None:
        doc["serve"] = serve.to_dict() if hasattr(serve, "to_dict") else serve
    if dag is not None:
        doc["dag"] = dag.to_dict() if hasattr(dag, "to_dict") else dag
    if extra:
        doc.update(extra)
    return doc


def write_manifest(path: Union[str, Path], manifest: dict) -> Path:
    # atomic: a crash mid-write must never leave a torn manifest next
    # to intact artifacts (the manifest is the reproducibility record)
    return atomic_write_json(path, manifest)


def output_digests(manifest: dict) -> Dict[str, str]:
    """The reproducibility surface: artifact name -> content digest."""
    return {
        name: entry["sha256"] for name, entry in manifest["outputs"].items()
    }
